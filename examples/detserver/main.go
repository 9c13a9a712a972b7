// detserver: a deterministic sharded key-value server built on scheduler
// domains.
//
// Parrot wraps network operations so socket traffic joins the deterministic
// schedule; this reproduction models connections as deterministic message
// pipes. This example shards the server: each shard is its own scheduler
// domain hosting a complete engine — clients feeding a worker pool over a
// Pipe, workers updating the shard's store partition under a mutex — so the
// shards' synchronization runs genuinely concurrently, each under its own
// turn. The only cross-domain traffic is each shard streaming its mutation
// journal to the coordinator over a sequenced XPipe, using the batched
// boundary API: SendAll ships up to the pipe's capacity of journal entries
// per turn-holding boundary slot, Close ends the stream, and the coordinator
// drains each shard with RecvUpTo.
//
// Determinism is now compositional: instead of one global schedule hash, the
// execution is fingerprinted by every domain's schedule hash plus a hash of
// every cross-domain delivery's stamps, and the example shows the whole
// fingerprint is identical on every run.
package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"qithread"
	"qithread/internal/ingress"
)

type request struct {
	client int
	op     string // "put" or "get"
	key    string
	value  string
}

const shards = 2

// journalCap is the journal pipes' capacity: the maximum journal entries one
// batched boundary slot transfers.
const journalCap = 8

// shardEngine runs one complete key-value engine inside its own domain and
// streams the shard's store-mutation journal to the coordinator when done.
func shardEngine(rt *qithread.Runtime, shard int, out *qithread.XPipe) func(*qithread.Thread) {
	return func(e *qithread.Thread) {
		var journal []any // order in which this shard's store was mutated
		store := map[string]string{}
		reqs := rt.NewPipe(e, "requests", 8)
		resp := make([]*qithread.Pipe, 3)
		for i := range resp {
			resp[i] = rt.NewPipe(e, fmt.Sprintf("resp%d", i), 4)
		}
		storeMu := rt.NewMutex(e, "store")

		// Worker pool.
		var workers []*qithread.Thread
		for i := 0; i < 4; i++ {
			e.KeepTurn()
			workers = append(workers, e.Create(fmt.Sprintf("worker%d", i), func(w *qithread.Thread) {
				for {
					v, ok := reqs.Recv(w)
					if !ok {
						return
					}
					r := v.(request)
					w.Work(40) // parse / validate
					storeMu.Lock(w)
					var answer string
					switch r.op {
					case "put":
						store[r.key] = r.value
						journal = append(journal, r.key+"="+r.value)
						answer = "OK"
					case "get":
						answer = store[r.key]
					}
					storeMu.Unlock(w)
					resp[r.client].Send(w, answer)
				}
			}))
		}

		// Clients, each a thread issuing a deterministic request sequence
		// over this shard's slice of the key space.
		var clients []*qithread.Thread
		for c := 0; c < 3; c++ {
			c := c
			e.KeepTurn()
			clients = append(clients, e.Create(fmt.Sprintf("client%d", c), func(w *qithread.Thread) {
				for i := 0; i < 4; i++ {
					key := fmt.Sprintf("k%d.%d", shard, (c+i)%4)
					reqs.Send(w, request{client: c, op: "put", key: key, value: fmt.Sprintf("c%d#%d", c, i)})
					if v, ok := resp[c].Recv(w); !ok || v != "OK" {
						panic("put failed")
					}
					w.Work(60) // think time
					reqs.Send(w, request{client: c, op: "get", key: key})
					resp[c].Recv(w)
				}
			}))
		}
		for _, c := range clients {
			e.Join(c)
		}
		reqs.Close(e)
		for _, w := range workers {
			e.Join(w)
		}
		// Stream the journal: each SendAll moves up to journalCap entries in
		// one boundary slot; Close ends the shard's stream.
		out.SendAll(e, journal)
		out.Close(e)
	}
}

// server runs the sharded server once and returns the per-shard journals
// (in shard order) and the execution fingerprint.
func server(cfg qithread.Config) ([]string, qithread.Fingerprint) {
	rt := qithread.New(cfg)
	doms := make([]*qithread.Domain, shards)
	pipes := make([]*qithread.XPipe, shards)
	for k := range doms {
		doms[k] = rt.NewDomain(fmt.Sprintf("shard%d", k))
	}
	for k := range pipes {
		pipes[k] = rt.NewXPipe(fmt.Sprintf("journal%d", k), doms[k], rt.Domain(0), journalCap)
	}
	journals := make([]string, shards)
	rt.Run(func(main *qithread.Thread) {
		for k := range doms {
			doms[k].Start("engine", shardEngine(rt, k, pipes[k]))
		}
		for k := range doms {
			doms[k].Launch()
		}
		// Drain each shard's journal stream in shard order, up to journalCap
		// entries per boundary slot, until the shard closes its pipe.
		buf := make([]any, journalCap)
		for k := range pipes {
			var entries []string
			for {
				n, ok := pipes[k].RecvUpTo(main, buf)
				for i := 0; i < n; i++ {
					entries = append(entries, buf[i].(string))
				}
				if !ok {
					break
				}
			}
			journals[k] = strings.Join(entries, " ")
		}
	})
	return journals, rt.Fingerprint()
}

func main() {
	cfg := qithread.Config{Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true}

	j1, fp1 := server(cfg)
	j2, fp2 := server(cfg)

	for k := range j1 {
		fmt.Printf("shard %d mutation order, run 1: %s\n", k, j1[k])
		fmt.Printf("shard %d mutation order, run 2: %s\n", k, j2[k])
	}
	fmt.Println("fingerprint, run 1:", fp1)
	fmt.Println("fingerprint, run 2:", fp2)
	same := fp1.Equal(fp2)
	for k := range j1 {
		same = same && j1[k] == j2[k]
	}
	fmt.Printf("deterministic: %v (%d per-domain schedules + delivery hash identical)\n",
		same, len(fp1.DomainHashes))

	fmt.Println()
	tcpDemo()
}

// --- Part 2: a real TCP front end, record then replay ---------------------
//
// The pipes above model connections; this part uses actual sockets. Real
// clients dial a real listener and write newline-framed commands with random
// pacing — genuine outside nondeterminism. A deterministic ingress gateway is
// the only place that nondeterminism crosses into the schedule: the listener
// feeds a free-running collector, the main thread admits epoch-stamped
// batches inside the turn and routes each command to its shard's domain over
// an XPipe. The admission log recorded by the live run is then replayed — no
// sockets, no clients — and the run reproduces the same journals and the
// same fingerprint.

const tcpClients = 4
const tcpPutsPerClient = 6

// tcpShard runs one shard engine: apply the commands routed to this shard in
// arrival order, then stream the mutation journal back to the coordinator.
func tcpShard(in, out *qithread.XPipe) func(*qithread.Thread) {
	return func(e *qithread.Thread) {
		store := map[string]string{}
		var journal []string
		buf := make([]any, journalCap)
		for {
			n, ok := in.RecvUpTo(e, buf)
			for i := 0; i < n; i++ {
				cmd := buf[i].(string) // "put <key> <value>"
				f := strings.Fields(cmd)
				if len(f) == 3 && f[0] == "put" {
					store[f[1]] = f[2]
					journal = append(journal, f[1]+"="+f[2])
				}
			}
			if !ok {
				break
			}
		}
		out.SendAll(e, toAny(journal))
		out.Close(e)
	}
}

func toAny(ss []string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

func shardOf(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32()) % shards
}

// tcpServer runs the TCP-fronted server once. With replay nil it listens on
// a real socket, spawns real clients, and records; with a log it replays
// that recording without touching the network.
func tcpServer(replay *qithread.IngressLog) ([]string, qithread.Fingerprint, *qithread.IngressLog) {
	rt := qithread.New(qithread.Config{
		Mode: qithread.RoundRobin, Policies: qithread.AllPolicies, Record: true,
	})
	doms := make([]*qithread.Domain, shards)
	in := make([]*qithread.XPipe, shards)
	out := make([]*qithread.XPipe, shards)
	for k := range doms {
		doms[k] = rt.NewDomain(fmt.Sprintf("tcpshard%d", k))
		in[k] = rt.NewXPipe(fmt.Sprintf("cmds%d", k), rt.Domain(0), doms[k], journalCap)
		out[k] = rt.NewXPipe(fmt.Sprintf("tcpjournal%d", k), doms[k], rt.Domain(0), journalCap)
	}
	gw := rt.NewGateway("tcp", rt.Domain(0), qithread.GatewayConfig{MaxBatch: 8, Replay: replay})

	if replay == nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		gw.AddSource(ingress.ListenerSource{L: ln})
		// Real clients on real sockets, pacing themselves with random sleeps:
		// the arrival interleaving genuinely differs from run to run. The
		// listener closes once every client has disconnected, which exhausts
		// the source and ends admission.
		go func() {
			var wg sync.WaitGroup
			for c := 0; c < tcpClients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					conn, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						panic(err)
					}
					defer conn.Close()
					rng := rand.New(rand.NewSource(time.Now().UnixNano() + int64(c)))
					for i := 0; i < tcpPutsPerClient; i++ {
						time.Sleep(time.Duration(rng.Int63n(int64(500 * time.Microsecond))))
						fmt.Fprintf(conn, "put k%d.%d c%d#%d\n", c, i%3, c, i)
					}
				}(c)
			}
			wg.Wait()
			ln.Close()
		}()
	}

	journals := make([]string, shards)
	rt.Run(func(main *qithread.Thread) {
		for k := range doms {
			doms[k].Start("engine", tcpShard(in[k], out[k]))
		}
		for k := range doms {
			doms[k].Launch()
		}
		buf := make([]qithread.IngressEvent, 8)
		for {
			n, ok := gw.Admit(main, buf)
			for i := 0; i < n; i++ {
				cmd := string(buf[i].Data)
				f := strings.Fields(cmd)
				if len(f) != 3 || f[0] != "put" {
					continue // ill-formed line: dropped deterministically
				}
				in[shardOf(f[1])].Send(main, cmd)
			}
			if !ok {
				break
			}
		}
		for k := range in {
			in[k].Close(main)
		}
		buf2 := make([]any, journalCap)
		for k := range out {
			var entries []string
			for {
				n, ok := out[k].RecvUpTo(main, buf2)
				for i := 0; i < n; i++ {
					entries = append(entries, buf2[i].(string))
				}
				if !ok {
					break
				}
			}
			journals[k] = strings.Join(entries, " ")
		}
	})
	return journals, rt.Fingerprint(), gw.Log()
}

func tcpDemo() {
	fmt.Println("--- TCP front end: record, then replay without the network ---")
	j1, fp1, log := tcpServer(nil)
	fmt.Printf("live run: %d commands admitted in %d batches over real sockets\n",
		log.Events(), len(log.Batches))
	j2, fp2, _ := tcpServer(log)
	for k := range j1 {
		fmt.Printf("shard %d journal, live:   %s\n", k, j1[k])
		fmt.Printf("shard %d journal, replay: %s\n", k, j2[k])
	}
	fmt.Println("fingerprint, live:  ", fp1)
	fmt.Println("fingerprint, replay:", fp2)
	same := fp1.Equal(fp2)
	for k := range j1 {
		same = same && j1[k] == j2[k]
	}
	fmt.Printf("replay reproduced the externally-driven run: %v\n", same)
}
