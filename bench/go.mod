// The benchmark is a module of its own so that it builds from this directory
// alone; it reaches the engine's packages through the replace below, which is
// allowed because its import path sits under bdcc/.
module bdcc/bench

go 1.24

require bdcc v0.0.0

replace bdcc => ../
