module hierdb/bench

go 1.24

require hierdb v0.0.0

replace hierdb => ../
