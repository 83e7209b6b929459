module socrates/bench

go 1.24

require socrates v0.0.0

replace socrates => ../
