module qithread

go 1.23
