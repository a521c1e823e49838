"""Mixed-precision training wrapper: FP32 master weights, loss scaling,
and FP32-side regularization.

The step pipeline around an inner optimizer is:

    scaled backward (seed = loss scale, F16 grads)
      -> finite check: any inf/nan => skip step, back off the scale,
         touch nothing else
      -> widen grads to FP32 exactly and multiply by 1/scale
      -> add registered regularizer terms against the FP32 master weights
      -> inner optimizer updates the master copy in FP32
      -> working weights refreshed as cast(master) to each variable's own
         dtype
      -> scale policy sees a good step

apply_update, shared by mp_step and distrib.Replica, runs it from the
regularizers on. FP32 runs it with scale 1: cast to a tensor's own dtype
returns that tensor, so the FP32 master is the working weights themselves
and the refresh does nothing.

Regularization deliberately never enters the F16 forward loss: a weight-decay
term like lam * w with lam ~ 1e-5 underflows half precision, so it is applied
directly to the FP32 gradients instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Variable, backward
from .optim import ContractViolation, Optimizer
from .tensor import DType, Tensor, cast


@dataclass
class StepOutcome:
    applied: bool
    scale: float
    grad_norm: float | None = None


class RegularizerRegistry:
    """Variables opted into FP32-side regularization, with coefficients."""

    KINDS = ("l2_weight_decay",)

    def __init__(self):
        self.entries: list[tuple[str, str, float]] = []

    def register(self, var_name: str, kind: str = "l2_weight_decay", coeff: float = 1e-5):
        if kind not in self.KINDS:
            raise ValueError(f"unknown regularizer kind {kind!r}")
        if coeff <= 0:
            raise ValueError("regularizer coefficient must be positive")
        if any(name == var_name for name, _, _ in self.entries):
            raise ValueError(f"{var_name!r} already registered")
        self.entries.append((var_name, kind, float(coeff)))

    def __len__(self):
        return len(self.entries)


class LossScaleState:
    """Base: a positive scale and reactions to overflow / clean steps."""

    kind = "static"

    def __init__(self, scale: float = 1.0, scale_min: float = 1.0, scale_max: float = 2.0 ** 24):
        if scale <= 0:
            raise ValueError("loss scale must be positive")
        self.scale = float(scale)
        self.scale_min = float(scale_min)
        self.scale_max = float(scale_max)

    def on_overflow(self) -> float:
        return self.scale

    def on_good_step(self, observed_max_abs: float | None = None) -> float:
        return self.scale

    def to_dict(self) -> dict:
        return {"kind": self.kind, "scale": self.scale}

    def load_dict(self, d: dict) -> None:
        self.scale = float(d["scale"])


class StaticScale(LossScaleState):
    kind = "static"


class BackoffScale(LossScaleState):
    """Halve on overflow (step skipped); double after a clean run of steps."""

    kind = "backoff"

    def __init__(self, scale: float = 2.0 ** 15, backoff_factor: float = 2.0,
                 growth_factor: float = 2.0, growth_interval: int = 200,
                 scale_min: float = 1.0, scale_max: float = 2.0 ** 24):
        super().__init__(scale, scale_min, scale_max)
        self.backoff_factor = float(backoff_factor)
        self.growth_factor = float(growth_factor)
        self.growth_interval = int(growth_interval)
        self.good_steps = 0

    def on_overflow(self) -> float:
        self.scale = max(self.scale / self.backoff_factor, self.scale_min)
        self.good_steps = 0
        return self.scale

    def on_good_step(self, observed_max_abs: float | None = None) -> float:
        self.good_steps += 1
        if self.good_steps == self.growth_interval:
            self.scale = min(self.scale * self.growth_factor, self.scale_max)
            self.good_steps = 0
        return self.scale

    def to_dict(self) -> dict:
        return {"kind": self.kind, "scale": self.scale, "good_steps": self.good_steps}

    def load_dict(self, d: dict) -> None:
        self.scale = float(d["scale"])
        self.good_steps = int(d["good_steps"])


class LogMaxScale(LossScaleState):
    """Scale from running statistics of the largest gradient magnitude.

    Tracks an exponential moving mean/variance of log2(max-abs unscaled
    gradient) and keeps the scaled maximum a safe margin below half
    precision's overflow exponent: scale = 2^(15 - ceil(mu + 3*sigma) - margin),
    clamped. Chosen so a stationary gradient distribution settles on a
    stable scale; overflow still forces an immediate halving plus skip.
    """

    kind = "logmax"

    def __init__(self, scale: float = 2.0 ** 15, decay: float = 0.99, margin: int = 2,
                 scale_min: float = 1.0, scale_max: float = 2.0 ** 24):
        super().__init__(scale, scale_min, scale_max)
        self.decay = float(decay)
        self.margin = int(margin)
        self.mean = None
        self.var = 0.0

    def on_overflow(self) -> float:
        self.scale = max(self.scale / 2.0, self.scale_min)
        return self.scale

    def on_good_step(self, observed_max_abs: float | None = None) -> float:
        if observed_max_abs is None or observed_max_abs <= 0:
            return self.scale
        x = math.log2(observed_max_abs)
        if self.mean is None:
            self.mean, self.var = x, 0.0
        else:
            d = self.decay
            self.mean = d * self.mean + (1 - d) * x
            self.var = d * self.var + (1 - d) * (x - self.mean) ** 2
        exponent = 15 - math.ceil(self.mean + 3 * math.sqrt(self.var)) - self.margin
        lo, hi = math.log2(self.scale_min), math.log2(self.scale_max)
        self.scale = 2.0 ** min(max(exponent, lo), hi)
        return self.scale

    def to_dict(self) -> dict:
        return {"kind": self.kind, "scale": self.scale, "mean": self.mean, "var": self.var}

    def load_dict(self, d: dict) -> None:
        self.scale = float(d["scale"])
        self.mean = d["mean"]
        self.var = float(d["var"])


def make_scale_policy(dtype_mode: str, loss_scale: float | None, loss_scaling: str | None,
                      params: dict | None = None) -> LossScaleState:
    """Map config keys to a policy: static number, or "Backoff"/"LogMax";
    FP32 ("float32") always trains at static scale 1."""
    params = dict(params or {})
    if dtype_mode != "mixed":
        return StaticScale(1.0)
    if loss_scaling is None:
        return StaticScale(scale=loss_scale if loss_scale is not None else 1.0)
    name = loss_scaling.lower()
    if name == "backoff":
        return BackoffScale(**params)
    if name == "logmax":
        return LogMaxScale(**params)
    raise ValueError(f"unknown loss_scaling {loss_scaling!r}")


class MixedPrecisionState:
    """Per-replica wrapper state: master weights + scale state + registry."""

    def __init__(self, master: dict[str, Tensor], scale_state: LossScaleState,
                 registry: RegularizerRegistry):
        self.master = master
        self.scale_state = scale_state
        self.registry = registry


def init_master(variables: dict[str, Variable], scale_state: LossScaleState | None = None,
                registry: RegularizerRegistry | None = None) -> MixedPrecisionState:
    """Exact FP32 widenings of the current trainable values (the values
    themselves in FP32)."""
    master = {name: cast(v.value, DType.F32) for name, v in variables.items() if v.trainable}
    return MixedPrecisionState(master, scale_state or StaticScale(1.0),
                               registry or RegularizerRegistry())


def check_finite_all(grads: dict[str, Tensor]) -> bool:
    return all(np.isfinite(g.f32()).all() for g in grads.values())


def unscale_to_f32(grads: dict[str, Tensor], scale: float) -> dict[str, Tensor]:
    """Exact widening to FP32, then multiply by 1/scale (FP32)."""
    inv = np.float32(1.0) / np.float32(scale)
    out: dict[str, Tensor] = {}
    for name, g in grads.items():
        g32 = g.f32()
        if not np.isfinite(g32).all():
            raise ContractViolation(f"unscale_to_f32 on non-finite gradient {name!r}")
        out[name] = Tensor((g32 * inv).astype(np.float32), DType.F32)
    return out


def apply_regularizer_grads(state: MixedPrecisionState,
                            grads_f32: dict[str, Tensor]) -> dict[str, Tensor]:
    """grads[v] += coeff * master[v], entirely in FP32.

    The registered coefficient multiplies the weight directly, i.e. it is the
    gradient of a loss term coeff/2 * ||w||^2.
    """
    out = dict(grads_f32)
    for name, kind, coeff in state.registry.entries:
        if name not in out:
            raise ContractViolation(f"registered variable {name!r} has no gradient")
        w = state.master[name].f32()
        out[name] = Tensor((out[name].f32() + np.float32(coeff) * w).astype(np.float32),
                           DType.F32)
    return out


def global_grad_norm(grads: dict[str, Tensor]) -> float:
    total = np.float32(0.0)
    for name in sorted(grads):
        g = grads[name].f32()
        total += np.sum(g * g, dtype=np.float32)
    return float(np.sqrt(total))


def apply_update(state: MixedPrecisionState, optimizer: Optimizer,
                 variables: dict[str, Variable], grads32: dict[str, Tensor],
                 lr: float) -> float:
    """Regularizers, optimizer step on master, refresh, scale policy; returns
    the norm of the finite unscaled FP32 ``grads32`` after regularization."""
    grads32 = apply_regularizer_grads(state, grads32)
    optimizer.step(state.master, grads32, lr)
    for name, master in state.master.items():
        var = variables[name]
        var.value = cast(master, var.value.dtype)
    observed = max((float(np.max(np.abs(g.f32()), initial=0.0)) for g in grads32.values()),
                   default=0.0)
    state.scale_state.on_good_step(observed)
    return global_grad_norm(grads32)


def mp_step(state: MixedPrecisionState, optimizer: Optimizer, lr: float,
            tape: Tape) -> StepOutcome:
    """One wrapped optimizer step; non-finite gradients turn it into a no-op."""
    scale = state.scale_state.scale
    grads = backward(tape, loss_seed=scale)
    if not check_finite_all(grads):
        state.scale_state.on_overflow()
        return StepOutcome(applied=False, scale=state.scale_state.scale)
    grad_norm = apply_update(state, optimizer, tape.variables, unscale_to_f32(grads, scale), lr)
    return StepOutcome(applied=True, scale=state.scale_state.scale, grad_norm=grad_norm)


def memory_report(variables: dict[str, Variable], tape: Tape, optimizer: Optimizer,
                  mode: str) -> dict[str, int]:
    """Exact byte counts per category after one forward/backward.

    Gradient bytes mirror variable dtype (grads live in the model precision);
    master bytes exist only in mixed mode. Activation bytes come from the
    tape's recorded intermediates.
    """
    trainable = [v for v in variables.values() if v.trainable]
    weight_bytes = sum(v.value.nbytes for v in trainable)
    param_count = sum(v.value.size for v in trainable)
    return {
        "weights": weight_bytes,
        "master": 4 * param_count if mode == "mixed" else 0,
        "optimizer_state": optimizer.state_bytes(),
        "gradients": weight_bytes,
        "activations": tape.activation_bytes(),
    }
