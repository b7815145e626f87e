"""Image matching compiled to QUBO: interest points, conflict graphs, solvers."""
