"""Presented Hopf superalgebras: P_r arithmetic, group algebra constructors,
quotient classification, and Hom-scheme ideals."""
