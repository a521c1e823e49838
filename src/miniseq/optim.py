"""Inner optimizers (SGD, momentum, Adam) and learning-rate policies.

All optimizer arithmetic runs in FP32 on the master copy of the weights;
slot tensors never hold F16. The step counter advances only when a step is
actually applied, so Adam bias correction stays consistent across skipped
iterations.
"""

from __future__ import annotations

import numpy as np

from .tensor import DType, Tensor

# each kind and the keyword arguments it reads; config.validate rejects the others
OPTIMIZER_PARAMS = {"sgd": (), "momentum": ("momentum",),
                    "adam": ("beta1", "beta2", "epsilon")}
# the slots each kind keeps for every trainable variable once it has stepped
OPTIMIZER_SLOTS = {"sgd": (), "momentum": ("m",), "adam": ("m", "v")}
LR_POLICY_PARAMS = {"constant": ("learning_rate",),
                    "exp_decay": ("learning_rate", "decay_rate", "decay_steps", "staircase")}


class ContractViolation(RuntimeError):
    pass


class LRPolicy:
    def __init__(self, kind: str = "constant", learning_rate: float = 1e-3,
                 decay_rate: float = 1.0, decay_steps: int = 1000, staircase: bool = False):
        if kind not in LR_POLICY_PARAMS:
            raise ValueError(f"unknown lr_policy {kind!r}")
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0 < decay_rate <= 1:
            raise ValueError("decay_rate must lie in (0, 1]")
        if decay_steps < 1:  # 0 divides by zero, a negative count grows the rate
            raise ValueError(f"decay_steps must be >= 1, got {decay_steps}")
        self.kind = kind
        self.learning_rate = float(learning_rate)
        self.decay_rate = float(decay_rate)
        self.decay_steps = int(decay_steps)
        self.staircase = bool(staircase)

    def lr_at(self, t: int) -> float:
        if t < 0:
            raise ValueError("step must be non-negative")
        if self.kind == "constant":
            return self.learning_rate
        exponent = t / self.decay_steps
        if self.staircase:
            exponent = float(int(exponent))
        return self.learning_rate * self.decay_rate ** exponent


class Optimizer:
    """FP32 parameter updates with per-variable slot state."""

    def __init__(self, kind: str = "sgd", momentum: float = 0.9,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8):
        kind = kind.lower()  # config files write "Adam"
        if kind not in OPTIMIZER_PARAMS:
            raise ValueError(f"unknown optimizer {kind!r}")
        for name, beta in (("beta1", beta1), ("beta2", beta2)):
            if not 0 <= beta < 1:  # a beta of 1 makes the bias correction divide 0 by 0
                raise ValueError(f"{name} must lie in [0, 1), got {beta}")
        if not epsilon > 0:  # 0 leaves 0/0 where a gradient never reached m and v
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.kind = kind
        self.momentum = float(momentum)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.t = 0
        self.slots: dict[str, dict[str, np.ndarray]] = {}

    def _slot(self, name: str, key: str, shape) -> np.ndarray:
        per_var = self.slots.setdefault(name, {})
        if key not in per_var:
            per_var[key] = np.zeros(shape, dtype=np.float32)
        return per_var[key]

    def step(self, master: dict[str, Tensor], grads: dict[str, Tensor], lr: float) -> None:
        """Apply one update to the FP32 master weights, in place of the dict."""
        for name, g in grads.items():
            if not np.isfinite(g.f32()).all():
                raise ContractViolation(f"non-finite gradient for {name!r}")
            if g.dtype is not DType.F32:
                raise ContractViolation(f"optimizer requires FP32 gradients, got {g.dtype}")
        self.t += 1
        lr32 = np.float32(lr)
        for name in sorted(grads):
            w = master[name].f32()
            g = grads[name].f32()
            if w.shape != g.shape:
                raise ValueError(f"gradient shape {g.shape} != weight shape {w.shape} for {name!r}")
            if self.kind == "sgd":
                new = w - lr32 * g
            elif self.kind == "momentum":
                m = self._slot(name, "m", w.shape)
                m[...] = np.float32(self.momentum) * m + g
                new = w - lr32 * m
            else:
                m = self._slot(name, "m", w.shape)
                v = self._slot(name, "v", w.shape)
                b1, b2 = np.float32(self.beta1), np.float32(self.beta2)
                m[...] = b1 * m + (np.float32(1.0) - b1) * g
                v[...] = b2 * v + (np.float32(1.0) - b2) * g * g
                m_hat = m / np.float32(1.0 - self.beta1 ** self.t)
                v_hat = v / np.float32(1.0 - self.beta2 ** self.t)
                new = w - lr32 * m_hat / (np.sqrt(v_hat) + np.float32(self.epsilon))
            master[name] = Tensor(new.astype(np.float32), DType.F32)

    def state_bytes(self) -> int:
        return sum(arr.nbytes for per_var in self.slots.values() for arr in per_var.values())

    def snapshot(self) -> dict:
        """Deep copy of mutable state, for skip-is-a-no-op verification."""
        return {
            "t": self.t,
            "slots": {n: {k: a.copy() for k, a in s.items()} for n, s in self.slots.items()},
        }
