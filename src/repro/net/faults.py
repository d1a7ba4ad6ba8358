"""Deterministically-seeded fault injection for every transport.

The paper's measurement campaign ran over flaky last-mile links; this
module lets every socket endpoint in :mod:`repro` — the server shell and
the client pool in :mod:`repro.net.conn` — replay that flakiness on
demand, *identically on every run*.

A :class:`FaultProfile` is pure configuration: a seed plus per-direction
fault rates (``client`` = everything a client endpoint sends, ``server``
= everything a server endpoint sends).  Endpoints resolve their profile
from the ``fault_profile=`` constructor knob, falling back to the
``REPRO_FAULT_PROFILE`` environment variable (read through
:func:`repro.settings.ambient_fault_profile`); when neither is set the
profile is ``None`` and the production code paths are untouched — no
wrapper objects, no per-frame draws, zero overhead.

Each connection derives a :class:`FaultInjector` from the profile seed,
the endpoint's role, and a per-endpoint connection counter (via
:func:`repro.seeding.derive_seed`), so a given connection's fault
sequence is a pure function of the profile — the property that makes
chaos tests assertable: the same seed tears the same frames on every
run.

Fault taxonomy (one uniform draw per frame, at most one fault):

=========== ==========================================================
``drop``    The frame is lost.  On a byte stream a silently-swallowed
            frame would park the peer until timeout, so the endpoint
            tears the connection down too (the peer sees an EOF/reset,
            which is what a lost segment plus an RST looks like).
``duplicate`` The frame is delivered twice.  Framing keeps messages
            intact, so a duplicated *response* is over-read bytes the
            client's parser must not choke on.
``delay``   The frame is delivered after a deterministic pause drawn
            from ``[0, delay_seconds]``.
``truncate`` A strict prefix of the frame's bytes is delivered, then
            the connection is torn down — the byte-level torn-message
            case the HTTP parsers must reject.
``reset``   The connection is torn down before the frame is sent (a
            mid-message reset when it lands between a message's
            frames).
=========== ==========================================================

Spec strings (the env-var / CLI format) are comma-separated ``key=value``
pairs::

    REPRO_FAULT_PROFILE="seed=1305,client.drop=0.05"
    --fault-profile "seed=9,drop=0.05,duplicate=0.02,delay=0.01,delay-seconds=0.005"

Bare fault keys apply to both directions; ``client.``/``server.``
prefixes scope a rate to one direction.  ``off``/``none``/an empty
string disable injection (useful to pin a mechanics-sensitive test
against a chaos-enabled environment).
"""

from __future__ import annotations

import random
import socket as _socket
import time as _time
from dataclasses import dataclass, field, fields, replace

from ..errors import ConfigurationError
from ..seeding import derive_seed
from ..settings import ambient_fault_profile

__all__ = [
    "FaultAction",
    "FaultInjector",
    "FaultProfile",
    "FaultRates",
    "FaultySocket",
    "resolve_fault_profile",
]

@dataclass(frozen=True)
class FaultRates:
    """Per-frame fault probabilities for one direction of traffic."""

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    truncate: float = 0.0
    reset: float = 0.0

    def __post_init__(self) -> None:
        total = 0.0
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"fault rate {spec.name}={value!r} is not in [0, 1]"
                )
            total += value
        if total > 1.0:
            raise ConfigurationError(
                f"fault rates sum to {total:.3f} > 1 (at most one fault "
                "is injected per frame)"
            )

    @property
    def any(self) -> bool:
        return any(getattr(self, spec.name) > 0.0 for spec in fields(self))


@dataclass(frozen=True)
class FaultProfile:
    """A seeded, per-direction fault-injection configuration.

    ``client`` rates are applied to frames sent by client endpoints
    (:class:`~repro.net.conn.KeepAlivePool`); ``server`` rates to frames
    sent by server endpoints.  ``delay_seconds`` bounds the pause
    a ``delay`` fault inserts.
    """

    seed: int = 0
    client: FaultRates = field(default_factory=FaultRates)
    server: FaultRates = field(default_factory=FaultRates)
    delay_seconds: float = 0.002

    def rates_for(self, role: str) -> FaultRates:
        if role not in ("client", "server"):
            raise ConfigurationError(f"unknown fault direction {role!r}")
        return getattr(self, role)

    def injector(self, role: str, *labels: object) -> "FaultInjector":
        """Build a per-connection injector for one direction.

        ``labels`` (endpoint name, connection counter, ...) key the
        derived seed, so distinct connections draw distinct — but
        per-run identical — fault sequences.
        """
        return FaultInjector(
            rates=self.rates_for(role),
            delay_seconds=self.delay_seconds,
            seed=derive_seed(self.seed, "faults", role, *labels),
        )

    @property
    def active(self) -> bool:
        return self.client.any or self.server.any

    # ------------------------------------------------------------------
    # Spec parsing
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: str) -> "FaultProfile | None":
        """Parse a ``key=value,...`` spec string; None for off/empty."""
        text = spec.strip()
        if not text or text.lower() in ("off", "none", "0"):
            return None
        seed = 0
        delay_seconds = 0.002
        rates: dict[str, dict[str, float]] = {"client": {}, "server": {}}
        rate_names = {spec.name for spec in fields(FaultRates)}
        aliases = {"dup": "duplicate", "delay-ms": None}
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            key, eq, value = piece.partition("=")
            key = key.strip().lower()
            if not eq:
                raise ConfigurationError(
                    f"fault profile piece {piece!r} is not key=value"
                )
            try:
                if key == "seed":
                    seed = int(value)
                    continue
                if key in ("delay-seconds", "delay_seconds"):
                    delay_seconds = float(value)
                    continue
                scope, dot, name = key.rpartition(".")
                name = aliases.get(name, name) or name
                if name not in rate_names:
                    raise ConfigurationError(
                        f"unknown fault key {key!r} (expected one of "
                        f"{sorted(rate_names)}, 'seed', 'delay-seconds', "
                        "optionally prefixed client./server.)"
                    )
                rate = float(value)
                if dot:
                    if scope not in rates:
                        raise ConfigurationError(
                            f"unknown fault direction {scope!r} in {key!r}"
                        )
                    rates[scope][name] = rate
                else:
                    rates["client"][name] = rate
                    rates["server"][name] = rate
            except ValueError as exc:
                raise ConfigurationError(
                    f"bad fault profile value {piece!r}: {exc}"
                ) from exc
        return cls(
            seed=seed,
            client=FaultRates(**rates["client"]),
            server=FaultRates(**rates["server"]),
            delay_seconds=delay_seconds,
        )

    def scaled(self, factor: float) -> "FaultProfile":
        """A copy with every rate multiplied by ``factor`` (clamped)."""

        def scale(rates: FaultRates) -> FaultRates:
            return FaultRates(
                **{
                    spec.name: min(1.0, getattr(rates, spec.name) * factor)
                    for spec in fields(FaultRates)
                }
            )

        return replace(self, client=scale(self.client), server=scale(self.server))


def resolve_fault_profile(
    knob: "FaultProfile | str | None",
) -> "FaultProfile | None":
    """Resolve a constructor knob into a profile (or None = no injection).

    ``None`` falls back to ``REPRO_FAULT_PROFILE``; a string is parsed as
    a spec (``"off"`` forces injection off even when the env var is
    set); a :class:`FaultProfile` passes through.  Profiles with no
    non-zero rate resolve to None so endpoints skip wrapping entirely.
    """
    if knob is None:
        profile = ambient_fault_profile(FaultProfile.from_spec)
    elif isinstance(knob, str):
        profile = FaultProfile.from_spec(knob)
    elif isinstance(knob, FaultProfile):
        profile = knob
    else:
        raise ConfigurationError(
            f"fault_profile must be a FaultProfile, spec string, or None; "
            f"got {type(knob).__name__}"
        )
    if profile is not None and not profile.active:
        return None
    return profile


@dataclass(frozen=True)
class FaultAction:
    """The injector's verdict for one frame.

    ``kind`` is one of ``send``, ``drop``, ``duplicate``, ``delay``,
    ``truncate``, ``reset``.  ``cut`` is the prefix length a
    ``truncate`` delivers; ``delay_s`` the pause a ``delay`` inserts.
    """

    kind: str = "send"
    cut: int = 0
    delay_s: float = 0.0


class FaultInjector:
    """One connection's deterministic stream of per-frame fault verdicts.

    Pure decision logic — :class:`FaultySocket` applies the verdict.
    Sampling is one uniform draw per frame against the cumulative rates,
    plus secondary draws for truncation cut points and delay lengths,
    all from a :class:`random.Random` seeded by the profile; the verdict
    sequence for a connection is therefore identical on every run.
    """

    def __init__(
        self, rates: FaultRates, delay_seconds: float, seed: int
    ) -> None:
        self.rates = rates
        self.delay_seconds = delay_seconds
        self._rng = random.Random(seed)
        self.frames = 0
        self.injected: dict[str, int] = {}

    def next_action(self, nbytes: int) -> FaultAction:
        """The verdict for the next ``nbytes``-byte frame."""
        self.frames += 1
        draw = self._rng.random()
        edge = 0.0
        for kind in ("drop", "duplicate", "delay", "truncate", "reset"):
            edge += getattr(self.rates, kind)
            if draw < edge:
                self.injected[kind] = self.injected.get(kind, 0) + 1
                if kind == "truncate":
                    # A strict prefix: at least 0, at most nbytes - 1.
                    cut = self._rng.randrange(max(1, nbytes))
                    return FaultAction(kind="truncate", cut=cut)
                if kind == "delay":
                    return FaultAction(
                        kind="delay",
                        delay_s=self._rng.random() * self.delay_seconds,
                    )
                return FaultAction(kind=kind)
        return FaultAction()


class FaultySocket:
    """A socket wrapper applying injector verdicts to every ``sendall``.

    A *frame* is one ``sendall`` call — always a whole HTTP message,
    since that is how every endpoint in :mod:`repro.net` writes.  Faults
    that lose bytes (``drop``, ``truncate``, ``reset``) also tear the
    connection down with a bidirectional shutdown: on a byte stream a
    silently-swallowed message would park the peer in ``recv`` until
    timeout, whereas a torn connection surfaces as the EOF/reset failure
    class the transports already handle (and retry where provably safe).

    Reads and everything else pass straight through, so the wrapper can
    stand in for a socket anywhere the endpoints use one.
    """

    def __init__(self, sock: _socket.socket, injector: FaultInjector) -> None:
        self._sock = sock
        self.injector = injector

    def sendall(self, data: bytes) -> None:
        action = self.injector.next_action(len(data))
        if action.kind == "drop" or action.kind == "reset":
            self._teardown()
            return
        if action.kind == "truncate":
            try:
                self._sock.sendall(data[: action.cut])
            except OSError:
                pass
            self._teardown()
            return
        if action.kind == "delay":
            _time.sleep(action.delay_s)
        elif action.kind == "duplicate":
            self._sock.sendall(data)
        self._sock.sendall(data)

    def _teardown(self) -> None:
        try:
            self._sock.shutdown(_socket.SHUT_RDWR)
        except OSError:
            pass

    # Everything except sendall passes through untouched; ``with conn:``
    # resolves dunders on the type, not via __getattr__.
    def __enter__(self) -> "FaultySocket":
        self._sock.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._sock.__exit__(*exc_info)

    def __getattr__(self, name: str) -> object:
        return getattr(self._sock, name)
