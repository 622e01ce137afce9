module github.com/repro/snowplow/benchmark

go 1.22

require github.com/repro/snowplow v0.0.0

replace github.com/repro/snowplow => ../
