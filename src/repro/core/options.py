"""User-facing configuration for the KADABRA drivers, and its command-line flags."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.util.validation import check_positive, check_probability

__all__ = ["ACCURACY_FLAGS", "OPTION_FLAGS", "KadabraOptions", "add_option_flags", "flag_field"]


def flag_field(default, kind, help=None, name=None, **flag):
    """A field a command line sets: its default, its flag's ``argparse`` keywords and name (default: the field's).

    ``default`` may be ``dataclasses.MISSING`` (a required field, ``required=True``), ``kind`` ``None``
    (an ``action`` that takes no value)."""
    if kind is not None:
        flag["type"] = kind
    return field(default=default, metadata={"flag": dict(help=help, **flag), "name": name})


@dataclass(frozen=True)
class KadabraOptions:
    """Options shared by the sequential, shared-memory and MPI drivers.

    The fields a command line sets declare their flag's type, default and
    help here, once: every estimating command adds them with
    :func:`add_option_flags`, and :meth:`from_flags` reads them back
    (``max_samples_override`` is ``--max-samples``).

    Attributes
    ----------
    eps:
        Absolute approximation error; the paper's headline experiments use
        0.001 (and 0.01 for the older shared-memory results).
    delta:
        Failure probability (paper: 0.1).
    seed:
        Master RNG seed; per-thread streams are derived deterministically.
    calibration_samples:
        Number of non-adaptive samples in the calibration phase; ``None``
        selects the default heuristic (a fraction of ``omega``).
    samples_per_check:
        Base number of samples taken between stopping-condition checks for a
        single worker (the ``n0`` constant); the parallel drivers shorten it
        to ``n0 / (P*T)**1.33`` following Section IV-D (see
        :class:`repro.parallel.engine.EpochGrid`).
    max_samples_override:
        If set, caps ``omega`` (useful in tests and small experiments).
    vertex_diameter_override:
        If set, skips the diameter phase and uses the given upper bound.
    """

    eps: float = flag_field(0.01, float, "absolute error bound (default %(default)s)")
    delta: float = flag_field(0.1, float, "failure probability (default %(default)s)")
    seed: Optional[int] = flag_field(None, int, "RNG seed (default: none; pin it for repeatable runs and refines)")
    calibration_samples: Optional[int] = flag_field(None, int, "calibration samples (default: a fraction of omega)")
    samples_per_check: int = flag_field(1000, int, "samples per stopping check of one worker (default %(default)s)")
    max_samples_override: Optional[int] = flag_field(None, int, "cap on omega (default: none)", name="max_samples")
    vertex_diameter_override: Optional[int] = None

    def __post_init__(self) -> None:
        check_positive(self.eps, "eps")
        check_probability(self.delta, "delta")
        if self.samples_per_check <= 0:
            raise ValueError("samples_per_check must be positive")
        if self.calibration_samples is not None and self.calibration_samples <= 0:
            raise ValueError("calibration_samples must be positive when given")
        if self.max_samples_override is not None and self.max_samples_override <= 0:
            raise ValueError("max_samples_override must be positive when given")
        if self.vertex_diameter_override is not None and self.vertex_diameter_override < 2:
            raise ValueError("vertex_diameter_override must be >= 2 when given")

    def with_(self, **changes) -> "KadabraOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def flags(self) -> Dict[str, Any]:
        """These options by flag name (each flag's ``dest``)."""
        return {flag: getattr(self, spec.name) for flag, spec in _FLAGS.items()}

    @classmethod
    def from_flags(cls, values: Mapping[str, Any]) -> "KadabraOptions":
        """The options a mapping by flag name describes: ``vars()`` of a parsed command line, or
        ``launch_local``'s keywords.  A flag it lacks keeps its default; other keys are ignored."""
        return cls(**{spec.name: values[flag] for flag, spec in _FLAGS.items() if flag in values})


#: The fields a command line sets, by flag name.
_FLAGS = {spec.metadata["name"] or spec.name: spec for spec in fields(KadabraOptions) if "flag" in spec.metadata}

#: Every option flag: what ``dist run`` and ``dist worker`` take.
OPTION_FLAGS = tuple(_FLAGS)

#: The accuracy flags: what the estimation command, ``session run`` and ``query`` take.
ACCURACY_FLAGS = ("eps", "delta", "seed")


def add_option_flags(parser, names: Iterable[str] = OPTION_FLAGS) -> None:
    """Add the option flags ``names`` to an ``argparse`` parser, with their defaults and help."""
    for name in names:
        spec = _FLAGS[name]
        parser.add_argument("--" + name.replace("_", "-"), default=spec.default, **spec.metadata["flag"])
