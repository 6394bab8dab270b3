module authdb/benchmark

go 1.22

require authdb v0.0.0

replace authdb => ../
