"""LDPC reconciliation codes: construction, decoding, DE, FER simulation."""

from .alist import read_alist, write_alist
from .de import (
    DensityEvolutionResult,
    decoding_threshold,
    density_evolution,
    psi,
    psi_inv,
)
from .decoder import SumProductDecoder
from .encoder import Gf2Encoder, derive_encoder
from .peg import ParityCheckMatrix, peg_construct
from .scramble import FrameScrambler
from .sim import (
    FerBerEstimate,
    FrameSimulator,
    SecurityGapResult,
    fer_ber_sim,
    security_gap,
)
