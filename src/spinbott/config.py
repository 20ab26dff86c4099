"""Size caps and the failed-check error, shared across the package.

Every cap guards an exponential blow-up (2^n blades, (dim E)^k tensors,
2^r truncated-polynomial terms, degree-phi(k) cyclotomic vectors, k-term
Bott factors and the line expansions they multiply out to).  The caps in
force live in one context-local scope, in the manner of
``decimal.localcontext``: everything computed inside
``with caps_scope(Caps(max_k=64)):`` -- constructors and all the
arithmetic that builds new values -- is checked against those caps, and
leaving the block restores the caps that held before it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field


class CapExceededError(ValueError):
    """A requested computation exceeds the configured size caps."""


class FailedCheckError(Exception):
    """An exact identity that a computation checks does not hold."""


def _cap(default: int, help: str):
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class Caps:
    """The size caps; each field is a CLI flag ``--max-...`` with its help."""

    max_dim: int = _cap(12, "blade rank cap")
    max_tensor: int = _cap(4096, "tensor dimension cap")
    max_vars: int = _cap(8, "truncated variable cap")
    max_k: int = _cap(32, "cyclotomic order and Bott order cap")
    max_output_mb: int = _cap(256, "cap on the estimated size of a Bott line "
                              "expansion or of a line symbol's key, in MB, "
                              "checked before it is built")


DEFAULT_CAPS = Caps()

_current: ContextVar[Caps] = ContextVar("spinbott_caps", default=DEFAULT_CAPS)


@contextmanager
def caps_scope(caps: Caps):
    """Run the enclosed block under ``caps``; the previous caps return on exit."""
    token = _current.set(caps)
    try:
        yield caps
    finally:
        _current.reset(token)


def check_cap(field: str, value: int, what: str) -> None:
    """Raise CapExceededError when ``value`` exceeds the cap ``field`` in force."""
    limit = getattr(_current.get(), field)
    if value > limit:
        raise CapExceededError(f"{what} {value} exceeds cap {field}={limit}")
