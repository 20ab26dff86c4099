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

from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar


class CapExceededError(ValueError):
    """A requested computation exceeds the configured size caps."""


class FailedCheckError(Exception):
    """An exact identity that a computation checks does not hold."""


# (name, default, help) of each cap, in flag order: the fields of Caps and
# the CLI flags --max-... with their help
CAP_TABLE = (
    ("max_dim", 12, "blade rank cap"),
    ("max_tensor", 4096, "tensor dimension cap"),
    ("max_vars", 8, "truncated variable cap"),
    ("max_k", 32, "cyclotomic order and Bott order cap"),
    ("max_output_mb", 256, "cap on the estimated size of a Bott line expansion or of a "
     "line symbol's key, in MB, checked before it is built"),
)


class Caps(namedtuple("Caps", [name for name, _, _ in CAP_TABLE],
                      defaults=[default for _, default, _ in CAP_TABLE])):
    """The size caps, one field per row of ``CAP_TABLE``."""

    __slots__ = ()


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
