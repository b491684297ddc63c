module fedguard/benchmark

go 1.22

require fedguard v0.0.0

replace fedguard => ../
