"""Secret-key agreement over OFDM wiretap channels.

Subpackages:
  channels  reproducible Rayleigh multipath generation
  ofdm      exact matrix model of the OFDM/CP wiretap link
  rates     achievable secret-key and secrecy rates
  ldpc      code construction, decoding, density evolution, FER simulation
  outage    eavesdropper SNR statistics and rate outage analysis
  cli       batch experiment runner
"""

from .channels import PdpProfile, SeededRng, exponential_pdp
from .ofdm import (
    EffectiveChannels,
    OfdmConfig,
    demodulator_matrix,
    effective_channels,
    modulator_matrix,
    toeplitz_conv_matrix,
)
from .rates import (
    best_subcarrier,
    low_power_input,
    mimo_secret_key_rate,
    power_for_target_snr,
    secret_key_rates,
    secrecy_rates,
    snr_pair,
)

__version__ = "0.1.0"
