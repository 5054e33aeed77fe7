// The benchmark is a module of its own so the root module's build and
// `go test ./...` never compile it. Its import path sits under chronos/, so
// it may import chronos/internal/... to time the layers from outside.
module chronos/bench

go 1.22

require chronos v0.0.0

replace chronos => ../
