"""Seed lanes: the one place that decides which seed a random stream uses.

Every random stream draws from a seed built from the run seed and a few
indices. Each lane below has one function that builds that seed. Every
function returns a plain int, and the int is the same in every process.

=================  ===========================  ===================================
lane               function                     seed
=================  ===========================  ===================================
open-loop arrival  arrival(seed, tenant, m)     seed + 104_729*tenant + m
open-loop seqlen   seqlen(seed, tenant, m)      seed + 104_729*tenant + 100_003 + m
decode length      decode(arrival(seed, 0, m))  seed + 1_000_003 + m
session think      session_think(seed, k)       seed + 7_919*k
session seqlen     session_seqlen(seed, r)      seed + 900_001 + 7_919*r
region arrival     region_arrival(seed, i, m)   seed + i + 104_729*m
named layer        named_layer(seed, name)      CRC-32 of "{seed}:{name}", 31 bits
IMA tile           ima_tile(seed, key)          hash((seed, key)), 31 bits
=================  ===========================  ===================================

``m`` is a model's index in the run's model list, ``tenant`` a tenant's
index, ``k`` a closed-loop session, ``r`` a request id and ``i`` a
region.  Tenant 0 is the untagged layout, so a single-tenant run
replays the run without tenants.

Why the lanes of one run never meet.  A run's models are distinct zoo
workloads (``Cluster`` refuses duplicates), so ``m`` is far below 4,726,
the smallest gap between the residues below:

* open loop (arrival, seqlen and decode, or tenants with seqlens):
  modulo 104,729, arrivals sit in ``[0, m)``, seqlens in
  ``[100_003, 100_003 + m)``; decode runs without tenants, so its
  ``1_000_003 + m`` is above every other lane of such a run;
* closed loop: think lanes are multiples of 7,919 and per-request
  seqlen lanes are 5,154 modulo 7,919 (900,001 = 113 * 7,919 + 5,154),
  so no session ever meets a request, however many of either;
* regions: ``i + 104_729*m`` is unique while there are fewer than
  104,729 regions.

Other lanes never share a run with these (closed loop replaces the
open-loop trace; tenants refuse clients and decode).  Lifting one of
those composition rules must extend ``tests/test_seed_lanes.py``.

The IMA tile lane hashes a tuple of ints, which Python does not salt,
so it is stable across processes.  Layer names are strings, and Python
salts ``str`` hashes per process, so the named-layer lane uses CRC-32.
"""

from __future__ import annotations

import zlib
from typing import Tuple

_TENANT_STRIDE = 104_729
_SEQLEN_OFFSET = 100_003
_DECODE_OFFSET = 1_000_003
_SESSION_STRIDE = 7_919
_SESSION_SEQLEN_OFFSET = 900_001
_MASK31 = 0x7FFFFFFF


def arrival(seed: int, tenant: int = 0, model: int = 0) -> int:
    """Open-loop arrival times of ``model`` for ``tenant``."""
    return seed + _TENANT_STRIDE * tenant + model


def seqlen(seed: int, tenant: int = 0, model: int = 0) -> int:
    """Open-loop sequence lengths of ``model`` for ``tenant``."""
    return seed + _TENANT_STRIDE * tenant + _SEQLEN_OFFSET + model


def decode(arrival_seed: int) -> int:
    """Output lengths of the open-loop stream that arrives on ``arrival_seed``.

    Keyed by the stream's arrival seed, so :func:`sample_decode_lens
    <repro.serve.decode.sample_decode_lens>` takes the same seed as
    :func:`make_trace <repro.serve.traces.make_trace>`.
    """
    return arrival_seed + _DECODE_OFFSET


def session_think(seed: int, session: int) -> int:
    """Think times of closed-loop session ``session``."""
    return seed + _SESSION_STRIDE * session


def session_seqlen(seed: int, request_id: int) -> int:
    """Sequence length of closed-loop request ``request_id``."""
    return seed + _SESSION_SEQLEN_OFFSET + _SESSION_STRIDE * request_id


def region_arrival(seed: int, region: int, model: int) -> int:
    """Diurnal arrival times of ``model`` in ``region``."""
    return seed + region + _TENANT_STRIDE * model


def named_layer(seed: int, name: str) -> int:
    """The engine behind one named layer of a backend."""
    return zlib.crc32(f"{seed}:{name}".encode()) & _MASK31


def ima_tile(seed: int, key: Tuple[int, ...]) -> int:
    """The IMA that holds one weight tile, keyed by a tuple of ints."""
    return hash((seed, key)) & _MASK31
