"""Workload specifications: DNN layers as the GEMMs the hardware sees.

The architecture evaluation (Fig. 8/10) needs each benchmark network as a
sequence of matrix products with byte-accurate weight footprints — not its
trained weights.  A :class:`LayerSpec` captures one layer's GEMM view
(convolutions via im2col), whether its "weight" operand is static (pinned in
ReRAM SIMAs) or dynamic (written to SRAM DIMAs each inference step), and the
activation traffic around it.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterable, List, Tuple


class LayerKind(enum.Enum):
    """What role a GEMM plays in the network."""

    CONV = "conv"
    DEPTHWISE_CONV = "dwconv"
    FC = "fc"
    PROJECTION = "projection"  # transformer QKV / output projections
    FFN = "ffn"
    ATTENTION_SCORE = "attn_score"  # Q K^T — dynamic x dynamic
    ATTENTION_CONTEXT = "attn_context"  # A V — dynamic x dynamic


class ModelKind(enum.Enum):
    CNN = "cnn"
    TRANSFORMER = "transformer"


@dataclasses.dataclass(frozen=True)
class GemmShape:
    """An (M, K, N) matrix product: (M x K) @ (K x N)."""

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.m <= 0 or self.k <= 0 or self.n <= 0:
            raise ValueError(f"GEMM dimensions must be positive, got {self}")

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n

    @property
    def ops(self) -> int:
        return 2 * self.macs


@dataclasses.dataclass(frozen=True)
class LayerSpec:
    """One network layer in hardware-mapper terms.

    Attributes
    ----------
    name:
        Unique layer name within the workload.
    kind:
        Role of the GEMM.
    gemm:
        The (M, K, N) product; for convolutions, the im2col view with
        ``M = out_h * out_w``, ``K = C * kh * kw``, ``N = out_channels``.
    static_weights:
        True when the K x N operand is a trained weight (eligible for
        ReRAM pinning); False for dynamic operands (attention K/Q/V).
    repeat:
        Identical instances of this GEMM (e.g. depthwise channels,
        attention heads) — kept factored to preserve mapping granularity.
    """

    name: str
    kind: LayerKind
    gemm: GemmShape
    static_weights: bool = True
    repeat: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("layer name must be non-empty")
        if self.repeat < 1:
            raise ValueError("repeat must be >= 1")

    @property
    def macs(self) -> int:
        return self.gemm.macs * self.repeat

    @property
    def ops(self) -> int:
        return 2 * self.macs

    @property
    def weight_bytes(self) -> int:
        """8-bit weight footprint (0 for dynamic operands)."""
        if not self.static_weights:
            return 0
        return self.gemm.k * self.gemm.n * self.repeat

    @property
    def dynamic_weight_bytes(self) -> int:
        """Bytes written into DIMAs per inference for dynamic operands."""
        if self.static_weights:
            return 0
        return self.gemm.k * self.gemm.n * self.repeat

    @property
    def input_bytes(self) -> int:
        """8-bit input activation traffic of one inference."""
        return self.gemm.m * self.gemm.k * self.repeat

    @property
    def output_bytes(self) -> int:
        """8-bit output activation traffic of one inference."""
        return self.gemm.m * self.gemm.n * self.repeat


@dataclasses.dataclass(frozen=True)
class WorkloadSpec:
    """A full network as an ordered tuple of layer specs."""

    name: str
    kind: ModelKind
    layers: Tuple[LayerSpec, ...]
    description: str = ""
    seq_len: int = 0  # tokens per inference (transformers only)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError(f"workload {self.name!r} has no layers")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"workload {self.name!r} has duplicate layer names")

    @property
    def total_macs(self) -> int:
        return sum(layer.macs for layer in self.layers)

    @property
    def total_ops(self) -> int:
        return 2 * self.total_macs

    @property
    def total_weight_bytes(self) -> int:
        return sum(layer.weight_bytes for layer in self.layers)

    @property
    def total_activation_bytes(self) -> int:
        return sum(layer.input_bytes + layer.output_bytes for layer in self.layers)

    def layers_of_kind(self, kind: LayerKind) -> List[LayerSpec]:
        return [layer for layer in self.layers if layer.kind == kind]

    @property
    def attention_fraction(self) -> float:
        """Fraction of MACs in dynamic attention products."""
        attn = sum(
            layer.macs
            for layer in self.layers
            if layer.kind in (LayerKind.ATTENTION_SCORE, LayerKind.ATTENTION_CONTEXT)
        )
        return attn / self.total_macs


# -- spec-building helpers -----------------------------------------------------------
def conv_layer(
    name: str,
    in_channels: int,
    out_channels: int,
    kernel: int,
    out_hw: int,
    depthwise: bool = False,
) -> LayerSpec:
    """A convolution in im2col-GEMM form.

    Depthwise convolutions become per-channel (M, k*k, 1) products with
    ``repeat = channels`` — their poor array utilisation is real and the
    mapper must see it.
    """
    if depthwise:
        return LayerSpec(
            name=name,
            kind=LayerKind.DEPTHWISE_CONV,
            gemm=GemmShape(m=out_hw * out_hw, k=kernel * kernel, n=1),
            repeat=in_channels,
        )
    return LayerSpec(
        name=name,
        kind=LayerKind.CONV,
        gemm=GemmShape(
            m=out_hw * out_hw, k=in_channels * kernel * kernel, n=out_channels
        ),
    )


def fc_layer(name: str, in_features: int, out_features: int) -> LayerSpec:
    return LayerSpec(
        name=name, kind=LayerKind.FC, gemm=GemmShape(m=1, k=in_features, n=out_features)
    )


def transformer_block_layers(
    prefix: str,
    seq_len: int,
    dim: int,
    n_heads: int,
    ff_dim: int,
    kv_dim: "int | None" = None,
) -> List[LayerSpec]:
    """The seven GEMMs of one encoder/decoder block.

    ``kv_dim`` supports grouped-query attention (LLaMA-3): K/V projections
    output ``kv_dim`` features instead of ``dim``.
    """
    if dim % n_heads:
        raise ValueError("dim must be divisible by n_heads")
    kv = kv_dim if kv_dim is not None else dim
    head_dim = dim // n_heads
    return [
        LayerSpec(f"{prefix}.q_proj", LayerKind.PROJECTION, GemmShape(seq_len, dim, dim)),
        LayerSpec(f"{prefix}.k_proj", LayerKind.PROJECTION, GemmShape(seq_len, dim, kv)),
        LayerSpec(f"{prefix}.v_proj", LayerKind.PROJECTION, GemmShape(seq_len, dim, kv)),
        LayerSpec(
            f"{prefix}.attn_score",
            LayerKind.ATTENTION_SCORE,
            GemmShape(seq_len, head_dim, seq_len),
            static_weights=False,
            repeat=n_heads,
        ),
        LayerSpec(
            f"{prefix}.attn_context",
            LayerKind.ATTENTION_CONTEXT,
            GemmShape(seq_len, seq_len, head_dim),
            static_weights=False,
            repeat=n_heads,
        ),
        LayerSpec(f"{prefix}.o_proj", LayerKind.PROJECTION, GemmShape(seq_len, dim, dim)),
        LayerSpec(f"{prefix}.ffn_up", LayerKind.FFN, GemmShape(seq_len, dim, ff_dim)),
        LayerSpec(f"{prefix}.ffn_down", LayerKind.FFN, GemmShape(seq_len, ff_dim, dim)),
    ]


def merge_layers(groups: Iterable[List[LayerSpec]]) -> Tuple[LayerSpec, ...]:
    merged: List[LayerSpec] = []
    for group in groups:
        merged.extend(group)
    return tuple(merged)


def _layer_at_seq_len(layer: LayerSpec, old_seq: int, new_seq: int) -> LayerSpec:
    """Rebuild one layer's GEMM for a different token count.

    The substitution is driven by the layer *kind*, never by matching
    dimension values — MobileBERT's hidden width equals its sequence
    length, so a value-based rewrite would corrupt weight shapes:

    * projections / FFNs process one row per token (``m`` is the token
      axis; ``k``/``n`` are trained-weight shapes and must not change);
    * attention score is ``(seq x head_dim) @ (head_dim x seq)``;
    * attention context is ``(seq x seq) @ (seq x head_dim)``;
    * convolutions and classifier heads (``m == 1``) carry no token axis.
    """
    gemm = layer.gemm
    if layer.kind in (LayerKind.PROJECTION, LayerKind.FFN):
        if gemm.m != old_seq:
            return layer
        new_gemm = GemmShape(m=new_seq, k=gemm.k, n=gemm.n)
    elif layer.kind == LayerKind.ATTENTION_SCORE:
        new_gemm = GemmShape(m=new_seq, k=gemm.k, n=new_seq)
    elif layer.kind == LayerKind.ATTENTION_CONTEXT:
        new_gemm = GemmShape(m=new_seq, k=new_seq, n=gemm.n)
    else:
        return layer
    return LayerSpec(
        layer.name, layer.kind, new_gemm, layer.static_weights, layer.repeat
    )


def at_seq_len(workload: WorkloadSpec, seq_len: int) -> WorkloadSpec:
    """Re-derive a transformer workload at a different sequence length.

    Token-axis GEMM dimensions scale with ``seq_len`` while every trained
    weight shape stays put, so ``total_weight_bytes`` (and with it the
    placement / replication / overflow behavior of the serving cluster) is
    invariant across sequence lengths — only compute, activation traffic
    and the dynamic attention operands grow.  CNN workloads and the native
    sequence length return the workload unchanged (identity), which is the
    bit-exactness guarantee the serving layer's fixed-seqlen path rides on.
    """
    if seq_len < 0:
        raise ValueError(f"seq_len must be non-negative, got {seq_len}")
    if (
        seq_len == 0
        or workload.kind != ModelKind.TRANSFORMER
        or workload.seq_len == 0
        or seq_len == workload.seq_len
    ):
        return workload
    layers = tuple(
        _layer_at_seq_len(layer, workload.seq_len, seq_len)
        for layer in workload.layers
    )
    return dataclasses.replace(workload, layers=layers, seq_len=seq_len)


class DecodeTemplate:
    """One decode iteration of a transformer with its context left open.

    A decode step computes exactly one new token against the cached
    context, so only the attention operands depend on the context length
    (YOCO's attention flow keeps every static weight where it is):

    * projections / FFNs process the one new token (``m = 1``; ``k``/``n``
      are trained-weight shapes and stay put) — context-free;
    * attention score is ``(1 x head_dim) @ (head_dim x ctx)``;
    * attention context is ``(1 x ctx) @ (ctx x head_dim)``;
    * everything else carries no token axis and is the native layer.

    Whether a projection row count is a token axis is decided against the
    *native* layer (``gemm.m == seq_len``), never by matching a derived
    value — the MobileBERT hazard :func:`_layer_at_seq_len` documents.
    The template builds every context-free layer once; :meth:`at` creates
    only the attention layers, so all contexts of one template share every
    other :class:`LayerSpec` object.  Layer order is the native order:
    the simulator sums per-layer costs left to right in that order, and
    its floats are exact only for that order.
    """

    __slots__ = ("_native", "_layers", "_attention")

    def __init__(self, workload: WorkloadSpec) -> None:
        if workload.kind != ModelKind.TRANSFORMER or workload.seq_len == 0:
            raise ValueError(
                f"workload {workload.name!r} has no token axis; "
                "decode steps need a transformer workload"
            )
        native_seq = workload.seq_len
        layers: List[LayerSpec] = []
        attention: List[int] = []
        for layer in workload.layers:
            kind, gemm = layer.kind, layer.gemm
            if kind in (LayerKind.ATTENTION_SCORE, LayerKind.ATTENTION_CONTEXT):
                attention.append(len(layers))
            elif (
                kind in (LayerKind.PROJECTION, LayerKind.FFN)
                and gemm.m == native_seq
            ):
                layer = LayerSpec(
                    layer.name, kind, GemmShape(m=1, k=gemm.k, n=gemm.n),
                    layer.static_weights, layer.repeat,
                )
            layers.append(layer)
        self._native = workload
        self._layers = layers
        self._attention = attention

    def at(self, context_len: int) -> WorkloadSpec:
        """The decode step at ``context_len``: new attention layers only."""
        if context_len < 1:
            raise ValueError(f"decode context_len must be >= 1, got {context_len}")
        layers = list(self._layers)
        for i in self._attention:
            layer = layers[i]
            gemm = layer.gemm
            if layer.kind == LayerKind.ATTENTION_SCORE:
                new_gemm = GemmShape(m=1, k=gemm.k, n=context_len)
            else:
                new_gemm = GemmShape(m=1, k=context_len, n=gemm.n)
            layers[i] = LayerSpec(
                layer.name, layer.kind, new_gemm, layer.static_weights,
                layer.repeat,
            )
        return dataclasses.replace(
            self._native, layers=tuple(layers), seq_len=context_len
        )


def at_decode_step(workload: WorkloadSpec, context_len: int) -> WorkloadSpec:
    """Derive one autoregressive decode iteration at a given context length.

    One pass over the native layers (:class:`DecodeTemplate`): every
    token-axis ``m`` is 1 — a decode step computes exactly one new token —
    while attention reads the full ``context_len``-deep KV cache.  Trained
    weight shapes are untouched, so ``total_weight_bytes`` stays invariant
    and the serving cluster's placement / replication / overflow decisions
    carry over from prefill unchanged.  Layers keep the native order, the
    order in which the simulator sums their costs.  Callers that derive
    many contexts of one model keep the template (``Cluster`` does).
    """
    return DecodeTemplate(workload).at(context_len)
