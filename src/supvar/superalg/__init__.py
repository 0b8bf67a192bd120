"""Presented Hopf superalgebras: P_r arithmetic, group algebra constructors,
quotient classification, Hom-scheme ideals, and the coordinate-coalgebra
oracle used to cross-check everything."""
