"""Model constants for the broker / informed-trader game.

A broker fills the flow of one informed client (fee ``fee_informed`` per unit
rate) and of uninformed noise traders (fee ``fee_uninformed``), and hedges in
the lit market at quadratic cost ``temp_impact`` with linear permanent price
impact ``perm_impact``.  The informed client observes a mean-reverting signal
``alpha`` that drifts the midprice; the broker does not.  The client models
the broker's unobserved lit-market speed as an OU process with parameters
``theta_speed`` / ``sigma_speed`` and filters it from prices.

Defaults reproduce the baseline experiment configuration used throughout the
test-suite and demos.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["ModelParams", "DEFAULT_PARAMS"]


@dataclass(frozen=True)
class ModelParams:
    # price and impact
    perm_impact: float = 1e-3       # permanent impact of the broker's lit rate
    temp_impact: float = 2.1e-3     # broker's own temporary impact (lit market)
    fee_informed: float = 2e-3      # linear fee charged to the informed client
    fee_uninformed: float = 2e-3    # linear fee charged to the noise flow
    sigma_price: float = 1.0
    price_init: float = 100.0
    # signal (privately observed by the informed trader)
    kappa_signal: float = 5.0
    sigma_signal: float = 1.0
    signal_init: float = 0.0
    rho: float = 0.0                # price / signal noise correlation
    # uninformed client flow
    kappa_flow: float = 15.0
    sigma_flow: float = 100.0
    # trader's OU model of the broker's lit-market speed
    theta_speed: float = 10.0
    sigma_speed: float = 60.0
    # risk aversion: terminal (beta) and running (phi) inventory penalties,
    # each with a level term and a term scaled by the filter variance
    beta0_trader: float = 1e-1
    beta1_trader: float = 1e-3
    phi0_trader: float = 1e-3
    phi1_trader: float = 1e-5
    beta0_broker: float = 1e-1
    beta1_broker: float = 1e-3
    phi0_broker: float = 1e-3
    phi1_broker: float = 1e-5
    # how strongly the broker believes her own speed feeds the client's rate
    c_belief: float = 1.0

    def __post_init__(self):
        pos = ("temp_impact", "fee_informed", "fee_uninformed", "theta_speed")
        for f in pos:
            if not getattr(self, f) > 0.0:
                raise ValidationError(f"{f} must be > 0, got {getattr(self, f)}")
        nonneg = (
            "perm_impact", "kappa_signal", "kappa_flow",
            "sigma_price", "sigma_signal", "sigma_speed", "sigma_flow",
            "beta0_trader", "beta1_trader", "phi0_trader", "phi1_trader",
            "beta0_broker", "beta1_broker", "phi0_broker", "phi1_broker",
        )
        for f in nonneg:
            if not getattr(self, f) >= 0.0:
                raise ValidationError(f"{f} must be >= 0, got {getattr(self, f)}")
        if not abs(self.rho) <= 1.0:
            raise ValidationError(f"rho must lie in [-1, 1], got {self.rho}")
        # sigma_price = 0 removes the observation noise every filter gain
        # divides by; it is only meaningful in the fully noiseless case
        if self.sigma_price == 0.0 and (self.sigma_signal > 0.0 or self.sigma_speed > 0.0
                                        or self.rho != 0.0):
            raise ValidationError(
                "sigma_price = 0 is only allowed when sigma_signal = sigma_speed = rho = 0"
            )
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValidationError(f"{f.name} must be a finite number, got {v!r}")
            # an int and the equal float are one parameter set (and one digest)
            object.__setattr__(self, f.name, float(v))

    def replace(self, **changes) -> "ModelParams":
        return dataclasses.replace(self, **changes)

    def digest(self) -> str:
        """Stable short hash of the parameter set (report metadata)."""
        # the fields are floats: vars() writes the JSON of asdict() without
        # its deep copy
        blob = json.dumps(vars(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


DEFAULT_PARAMS = ModelParams()
