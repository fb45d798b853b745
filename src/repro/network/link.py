"""The configurable link model: what one imperfect channel costs.

The paper's counting simulator assumes reliable, instantaneous FIFO
channels (§5.1) and leaves runtime cost as future work (§7). A
:class:`LinkModel` describes one point-to-point link realistically
enough to close that gap: fixed propagation latency plus seeded jitter,
finite bandwidth (serialization delay per byte on the wire), and
probabilistic drop with timeout/retransmit. The timed run mode (see
:mod:`repro.network.timed`) drives per-processor virtual clocks from
these parameters; counting mode ignores them entirely, so the message
and byte ledgers stay bit-identical whatever the link looks like.

This module is also the single home of the hardware cost constants:
:class:`~repro.obs.spans.SpanCosts` reads :data:`PRESET_CONSTANTS` too.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.common.errors import ConfigError

#: Canonical per-preset cost constants, shared by :class:`LinkModel`
#: and :class:`~repro.obs.spans.SpanCosts`. ``overhead_s`` is the fixed
#: per-message software cost (kernel traps, interrupts, protocol
#: handling — the §1 overhead that makes software DSM messages
#: expensive); ``bandwidth`` is bytes/s on the wire (``1/bandwidth``
#: is the historical ``per_byte_s``); the ``diff_*``/``access_s``
#: entries are the CPU-side constants the span replay charges.
PRESET_CONSTANTS: Dict[str, Dict[str, float]] = {
    # DECstation-class hardware over 10 Mbit Ethernet — the platform
    # TreadMarks later reported: ~1 ms of software per message,
    # 1.25 MB/s on the wire (8e-7 s/byte).
    "ethernet_1992": {
        "overhead_s": 1e-3,
        "latency_s": 0.0,
        "bandwidth": 1.25e6,
        "diff_create_s": 5e-4,
        "diff_apply_s": 2e-4,
        "access_s": 5e-8,
    },
    # Commodity cluster: ~5 us/message, ~10 GB/s.
    "modern_cluster": {
        "overhead_s": 5e-6,
        "latency_s": 0.0,
        "bandwidth": 1e10,
        "diff_create_s": 2e-6,
        "diff_apply_s": 1e-6,
        "access_s": 1e-9,
    },
}


@dataclass(frozen=True)
class LinkModel:
    """Parameters of every point-to-point link in a timed run.

    Attributes:
        latency_s: fixed propagation delay per message (seconds).
        jitter_s: upper bound of the per-message uniform extra delay,
            drawn from the seeded network RNG; 0 disables jitter.
        bandwidth: link bandwidth in bytes/s; a message of ``n`` wire
            bytes occupies its channel for ``n / bandwidth`` seconds.
            0 means infinite (no serialization delay).
        loss: per-transmission-attempt drop probability in [0, 1).
            Drops are transport-level: the timed layer charges
            ``timeout_s`` per lost attempt and retransmits, so the
            protocol ledgers (messages/bytes) are identical to the
            lossless run — only simulated time and the retry counter
            change.
        timeout_s: retransmission timeout charged per lost attempt.
        max_retries: retransmission budget per message. The attempt
            after the last retry always succeeds (the channels stay
            reliable, as the paper assumes; loss costs time, not
            delivery), so timed runs converge at any loss rate.
        overhead_s: fixed per-message software cost, spent on the
            *sender's* CPU before the message departs.
        access_s: per-word compute cost charged to a processor's
            virtual clock for ordinary reads/writes, so timed runs
            report a busy/stall decomposition instead of pure stall.
    """

    latency_s: float = 0.0
    jitter_s: float = 0.0
    bandwidth: float = 0.0
    loss: float = 0.0
    timeout_s: float = 1e-2
    max_retries: int = 10
    overhead_s: float = 0.0
    access_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("latency_s", "jitter_s", "bandwidth", "timeout_s", "overhead_s", "access_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"LinkModel.{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.loss < 1.0:
            raise ConfigError(f"LinkModel.loss must be in [0, 1), got {self.loss}")
        if self.max_retries < 0:
            raise ConfigError(f"LinkModel.max_retries must be >= 0, got {self.max_retries}")
        if self.loss > 0.0 and self.timeout_s <= 0.0:
            raise ConfigError("a lossy link needs timeout_s > 0 to charge retransmissions")

    @property
    def is_ideal(self) -> bool:
        """True when the link adds no delay and drops nothing."""
        return (
            self.latency_s == 0.0
            and self.jitter_s == 0.0
            and self.bandwidth == 0.0
            and self.loss == 0.0
            and self.overhead_s == 0.0
        )

    @property
    def per_byte_s(self) -> float:
        """Seconds per wire byte (0 when bandwidth is infinite)."""
        return 1.0 / self.bandwidth if self.bandwidth > 0.0 else 0.0

    def serialization_s(self, wire_bytes: int) -> float:
        """Channel occupancy of one message of ``wire_bytes``."""
        return wire_bytes / self.bandwidth if self.bandwidth > 0.0 else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON/manifest-friendly rendering (field order is stable)."""
        return {
            "latency_s": self.latency_s,
            "jitter_s": self.jitter_s,
            "bandwidth": self.bandwidth,
            "loss": self.loss,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "overhead_s": self.overhead_s,
            "access_s": self.access_s,
        }

    def with_options(self, **kwargs) -> "LinkModel":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    # -- presets ---------------------------------------------------------------

    @classmethod
    def ideal(cls) -> "LinkModel":
        """Zero latency, infinite bandwidth, no loss — the counting model.

        A timed run over this link must reproduce the counting run's
        ledgers bit-identically (the equivalence suite pins it) and
        completes in zero simulated seconds when ``access_s`` is 0.
        """
        return cls()

    @classmethod
    def from_preset(cls, name: str, **overrides) -> "LinkModel":
        """A preset link (see :data:`PRESET_CONSTANTS`) with overrides."""
        if name == "ideal":
            return cls().with_options(**overrides) if overrides else cls()
        try:
            constants = PRESET_CONSTANTS[name]
        except KeyError:
            known = ", ".join(["ideal"] + sorted(PRESET_CONSTANTS))
            raise ConfigError(f"unknown link preset {name!r} (known: {known})") from None
        fields = {
            "latency_s": constants["latency_s"],
            "bandwidth": constants["bandwidth"],
            "overhead_s": constants["overhead_s"],
            "access_s": constants["access_s"],
        }
        fields.update(overrides)
        return cls(**fields)

    @classmethod
    def ethernet_1992(cls, **overrides) -> "LinkModel":
        return cls.from_preset("ethernet_1992", **overrides)

    @classmethod
    def modern_cluster(cls, **overrides) -> "LinkModel":
        return cls.from_preset("modern_cluster", **overrides)


#: ``parse_link_spec`` key aliases -> (LinkModel field, value parser tag).
_SPEC_KEYS = {
    "latency": ("latency_s", "time"),
    "jitter": ("jitter_s", "time"),
    "bw": ("bandwidth", "rate"),
    "bandwidth": ("bandwidth", "rate"),
    "loss": ("loss", "prob"),
    "timeout": ("timeout_s", "time"),
    "retries": ("max_retries", "int"),
    "max_retries": ("max_retries", "int"),
    "overhead": ("overhead_s", "time"),
    "access": ("access_s", "time"),
}

_TIME_SUFFIXES = (("ns", 1e-9), ("us", 1e-6), ("ms", 1e-3), ("s", 1.0))
_RATE_SUFFIXES = (("kb/s", 1e3), ("mb/s", 1e6), ("gb/s", 1e9), ("kb", 1e3), ("mb", 1e6), ("gb", 1e9))


def _parse_time(text: str) -> float:
    low = text.strip().lower()
    for suffix, scale in _TIME_SUFFIXES:
        if low.endswith(suffix):
            return float(low[: -len(suffix)]) * scale
    return float(low)  # bare numbers are seconds


def _parse_rate(text: str) -> float:
    low = text.strip().lower()
    for suffix, scale in _RATE_SUFFIXES:
        if low.endswith(suffix):
            return float(low[: -len(suffix)]) * scale
    return float(low)  # bare numbers are bytes/s


def _parse_prob(text: str) -> float:
    low = text.strip()
    if low.endswith("%"):
        return float(low[:-1]) / 100.0
    return float(low)


def parse_link_spec(spec: str) -> LinkModel:
    """Parse the CLI's ``--network`` string into a :class:`LinkModel`.

    The spec is a comma-separated list. A bare token names a preset
    (``ideal``, ``ethernet_1992``, ``modern_cluster``); ``key=value``
    tokens override fields on top of it. Time values accept ``s``,
    ``ms``, ``us``, ``ns`` suffixes (bare numbers are seconds);
    bandwidth accepts ``KB/s``, ``MB/s``, ``GB/s`` (bare numbers are
    bytes/s); loss accepts a probability or a percentage::

        --network ethernet_1992
        --network latency=200us,bw=100MB/s,loss=1%
        --network ethernet_1992,jitter=50us,loss=0.02,timeout=5ms
    """
    base = "ideal"
    overrides: Dict[str, object] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            if overrides:
                raise ConfigError(
                    f"preset {token!r} must come first in a --network spec"
                )
            base = token
            continue
        key, _, raw = token.partition("=")
        key = key.strip().lower()
        if key not in _SPEC_KEYS:
            known = ", ".join(sorted(_SPEC_KEYS))
            raise ConfigError(f"unknown --network key {key!r} (known: {known})")
        field_name, parser = _SPEC_KEYS[key]
        try:
            if parser == "time":
                value: object = _parse_time(raw)
            elif parser == "rate":
                value = _parse_rate(raw)
            elif parser == "prob":
                value = _parse_prob(raw)
            else:
                value = int(raw.strip())
        except ValueError:
            raise ConfigError(f"bad --network value {raw!r} for {key!r}") from None
        overrides[field_name] = value
    return LinkModel.from_preset(base, **overrides)


def derive_network_seed(
    run_seed: Optional[int], protocol: str, link: LinkModel
) -> int:
    """The deterministic RNG seed for one timed run's loss/jitter draws.

    Derived from the workload seed, the protocol name, and the full link
    configuration, so (a) lossy runs are replayable from the manifest
    alone, (b) two protocols replaying the same trace do not share a
    draw sequence, and (c) changing any link parameter reshuffles the
    draws (sweep cells stay content-addressable).
    """
    material = "|".join(
        [
            str(run_seed if run_seed is not None else 0),
            protocol,
        ]
        + [f"{key}={value!r}" for key, value in sorted(link.to_dict().items())]
    )
    digest = hashlib.blake2b(material.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")
