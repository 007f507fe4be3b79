"""Entanglement-entropy vectors and monogamy-of-mutual-information (MMI)
analysis for stabilizer and graph states over GF(2).

Submodules:
    gf2      — bit-packed GF(2) matrices and subspace lattice operations
    tableau  — stabilizer tableaux, Clifford updates, rank entropies
    graphs   — graph states, local complementation, LC orbits, graph6 I/O
    entropy  — one state's entropy vector, canonical form, MMI instances, signs, tally
    star     — generalized-star partitions and column-space classification
    census   — exhaustive graph/group censuses and conjecture scans, with the
               numpy batch kernels: entropy rows, MMI signs
    cli      — the `stabmmi` command-line tool

`import stabmmi` loads no submodule; the CLI imports each one inside the
subcommands that run it, so only `census` loads numpy.
"""

__all__ = ["gf2", "tableau", "graphs", "entropy", "star", "census", "cli"]
__version__ = "0.1.0"
