"""Reed-Solomon codes under insertion/deletion errors.

Library layout:

* :mod:`rsinsdel.gf` - finite fields GF(p^m), elements as integer indices
* :mod:`rsinsdel.poly` - polynomials and exact linear algebra over GF(q)
* :mod:`rsinsdel.insdel` - LCS kernels, index sequences, rank certificates
* :mod:`rsinsdel.rscode` - evaluation vectors, codewords, affine equivalence
* :mod:`rsinsdel.analyze` - exact capability engines, classification, census, sampling
* :mod:`rsinsdel.construct` - deterministic rate-1/2 single-insdel construction
* :mod:`rsinsdel.bounds` - exact counting bounds and the 250-bit tail comparison
* :mod:`rsinsdel.cli` - reproducible JSON-reporting command line
"""

from .gf import Field, euler_phi, field_from_order, field_new, prime_power
from .rscode import EvaluationVector, RsCode, codeword, equivalent, parse_vector

__all__ = [
    "Field",
    "euler_phi",
    "field_from_order",
    "field_new",
    "prime_power",
    "EvaluationVector",
    "RsCode",
    "codeword",
    "equivalent",
    "parse_vector",
]

__version__ = "0.1.0"
