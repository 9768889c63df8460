"""End-to-end, layer-attributed benchmark of the simulated Monte Cimone."""
