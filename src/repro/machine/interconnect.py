"""Host<->device and node<->node links costed with the Hockney model.

The paper's MODEL_2_AUTO prices data movement with Hockney's model [11]:
``T(n) = alpha + n / beta`` for an ``n``-byte message, where ``alpha`` is
the fixed link latency and ``beta`` the asymptotic bandwidth.  The same
model drives the *simulated* transfer cost, so the analytical scheduler is
exact on this machine unless noise is enabled — which lets tests separate
model error from scheduling error.

The cluster layer (:mod:`repro.cluster`) reuses the same :class:`Link`
for its inter-node fabric; the presets below give the two tiers the
ROADMAP names (intra-node PCIe/NVLink on the :class:`~repro.machine.spec.
DeviceSpec`, inter-node Ethernet/InfiniBand on the
:class:`~repro.cluster.ClusterSpec`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from repro.util.units import gbs_to_bytes_per_s

__all__ = [
    "Link",
    "SHARED_LINK",
    "ETHERNET_10GBE",
    "ETHERNET_100GBE",
    "INFINIBAND_EDR",
    "INFINIBAND_HDR",
]


@dataclass(frozen=True, slots=True)
class Link:
    """A data link: ``latency_s`` (alpha) + ``bandwidth_gbs`` (beta).

    A *shared* link (``bandwidth_gbs == inf``) models a device living in
    the host address space (host CPUs, or unified memory treated as
    shared): transfers cost nothing and ``is_shared`` is True.  Because a
    shared link never charges anything, a nonzero ``latency_s`` on one
    would be silently dropped — such links are rejected at construction
    (alpha can only be charged by a link that actually transfers).

    Empty-transfer contract: ``transfer_time(0) == 0.0`` on *every* link.
    Hockney's formula gives ``T(0) = alpha``, but this model treats a
    zero-byte message as "no launch happened" — nothing crosses the wire,
    so nothing pays the latency.  The first nonzero byte pays the full
    alpha: ``transfer_time(n) >= latency_s`` for ``n > 0``.
    """

    latency_s: float
    bandwidth_gbs: float
    #: ``bandwidth_gbs`` in bytes/s, derived once (``transfer_time`` is per chunk).
    _bytes_per_s: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_bytes_per_s", gbs_to_bytes_per_s(self.bandwidth_gbs)
        )
        if self.latency_s < 0:
            raise ValueError(f"link latency must be >= 0, got {self.latency_s}")
        if self.bandwidth_gbs <= 0 and not self.is_shared:
            raise ValueError(f"link bandwidth must be > 0, got {self.bandwidth_gbs}")
        if self.is_shared and self.latency_s != 0.0:
            raise ValueError(
                f"shared link cannot carry a latency (got {self.latency_s}s): "
                "shared links never charge transfers, so the alpha would be "
                "silently dropped — use a finite bandwidth to model a link "
                "with latency"
            )

    @property
    def is_shared(self) -> bool:
        return self.bandwidth_gbs == inf

    def transfer_time(self, nbytes: float) -> float:
        """Hockney cost of moving ``nbytes`` across this link, in seconds.

        Zero bytes are free (no launch, see the class docstring); any
        positive size pays ``latency_s + nbytes / bandwidth``.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0 or self.bandwidth_gbs == inf:
            return 0.0
        return self.latency_s + nbytes / self._bytes_per_s


#: Link for devices sharing the host memory space (zero-cost "transfers").
SHARED_LINK = Link(latency_s=0.0, bandwidth_gbs=inf)

# -- inter-node fabric tiers (repro.cluster) ---------------------------------
#
# Effective figures for common cluster interconnects of the paper's era and
# after; as with the device presets, only the *ratios* against the
# intra-node PCIe links (~15 us + 11 GB/s) matter for crossover shapes.

#: Commodity 10 GbE (TCP): high latency, ~1.25 GB/s line rate.
ETHERNET_10GBE = Link(latency_s=50e-6, bandwidth_gbs=1.25)
#: 100 GbE with RoCE-class latency.
ETHERNET_100GBE = Link(latency_s=10e-6, bandwidth_gbs=12.5)
#: InfiniBand EDR (100 Gb/s, RDMA microsecond-class latency).
INFINIBAND_EDR = Link(latency_s=1.5e-6, bandwidth_gbs=12.0)
#: InfiniBand HDR (200 Gb/s).
INFINIBAND_HDR = Link(latency_s=1.0e-6, bandwidth_gbs=24.0)
