module lash/bench

go 1.24

require lash v0.0.0

replace lash => ../
