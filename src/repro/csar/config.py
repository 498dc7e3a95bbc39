"""Configuration for one simulated CSAR deployment."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.hw.params import HardwareProfile, get_profile
from repro.units import KiB


@dataclass
class CSARConfig:
    """Everything needed to build a :class:`~repro.csar.system.System`.

    The defaults mirror the paper's main setup: 6 I/O servers (5 data
    blocks per RAID5 stripe), 64 KiB stripe unit, OSU-cluster hardware.
    """

    scheme: str = "hybrid"
    num_servers: int = 6
    num_clients: int = 1
    stripe_unit: int = 64 * KiB
    profile: str | HardwareProfile = "osu8"
    #: carry real bytes end to end (tests) vs extents only (big benches)
    content_mode: bool = True
    #: Section 5.2 write buffering at the I/O daemons
    write_buffering: bool = True
    #: parity-block locking (False reproduces Fig 3's "R5 NO LOCK")
    locking: bool = True
    #: strict whole-group locking — the stronger-consistency extension
    #: Section 5.1 sketches: every write takes the locks of the parity
    #: groups it touches, serializing even *overlapping* concurrent
    #: writes (which plain CSAR, like PVFS, leaves undefined)
    strict_locking: bool = False
    #: merge adjacent same-kind request fragments per server into one
    #: vectored message (one header, one stream); False reproduces the
    #: one-message-per-fragment wire behaviour
    coalescing: bool = True
    #: compute parity content/CPU cost (False reproduces "RAID5-npc")
    compute_parity: bool = True
    #: use the byte-at-a-time parity kernel (the Swift/RAID ablation)
    parity_bytewise: bool = False
    #: scale factor applied to page-cache capacity; workloads scaled to a
    #: fraction of paper size must pass the same factor so cache-overflow
    #: crossovers (Fig 7) are preserved
    scale: float = 1.0
    #: run servers' background writeback daemons
    background_flusher: bool = True
    #: per-RPC deadline in sim seconds; ``None`` (the default) sets none,
    #: and an RPC waits for its reply however long.  Set it to survive
    #: silent message loss: a timed-out server is treated as failed
    #: (:class:`~repro.errors.RpcTimeout` is a ``ServerFailed``), so
    #: reads fail over to the scheme's degraded path
    rpc_timeout: float | None = None
    #: retry attempts (beyond the first send) for *idempotent* requests
    #: that time out; non-idempotent protocol messages (lock-carrying
    #: parity ops, overflow appends) never retry — a duplicate would
    #: corrupt server state — and surface the timeout immediately
    rpc_retries: int = 2
    #: exponential-backoff base delay between retries (sim seconds);
    #: attempt ``k`` waits ``base * 2**k`` capped at ``rpc_backoff_cap``,
    #: plus seeded jitter in [0, backoff) to break retry lockstep
    rpc_backoff_base: float = 0.002
    rpc_backoff_cap: float = 0.1
    #: seed for the per-client retry-jitter RNG (sim-deterministic; the
    #: client index is mixed in so clients don't retry in phase)
    rpc_jitter_seed: int = 0

    resolved_profile: HardwareProfile = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ConfigError("need at least one I/O server")
        if self.num_clients < 1:
            raise ConfigError("need at least one client")
        if self.stripe_unit <= 0:
            raise ConfigError("stripe unit must be positive")
        if self.scheme in ("raid5", "hybrid") and self.num_servers < 2:
            raise ConfigError(f"{self.scheme} needs at least 2 servers")
        if self.rpc_timeout is not None and self.rpc_timeout <= 0:
            raise ConfigError("rpc_timeout must be positive (or None)")
        if self.rpc_retries < 0:
            raise ConfigError("rpc_retries must be >= 0")
        if self.rpc_backoff_base <= 0 or self.rpc_backoff_cap <= 0:
            raise ConfigError("rpc backoff delays must be positive")
        profile = (get_profile(self.profile)
                   if isinstance(self.profile, str) else self.profile)
        if self.scale != 1.0:
            profile = profile.scaled(self.scale)
        self.resolved_profile = profile
