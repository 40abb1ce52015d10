"""Whole-scheme serialisation: pack every local function into one blob.

A deployed routing scheme is distributed to nodes as their individual
function encodings; for storage, transport and offline diffing it is
convenient to hold the whole scheme in one self-describing byte string.
The container format is deliberately simple:

``magic | version | scheme-name' | n' | per-node prime-coded functions``

where ``x'`` is the paper's self-delimiting prime code.  Loading restores
the per-node bit strings exactly; rebuilding live functions additionally
needs the graph and model (the knowledge the paper's models grant for
free), which the caller supplies — the blob never smuggles uncharged
information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.bitio import BitArray, BitReader, BitWriter
from repro.errors import BitstreamError, CodecError
from repro.graphs import LabeledGraph
from repro.models import RoutingModel
from repro.core.builder import build_scheme
from repro.core.scheme import RoutingScheme

__all__ = ["SchemeBlob", "pack_scheme", "unpack_blob", "restore_scheme"]

_MAGIC = 0b10110101
_VERSION = 1


@dataclass(frozen=True)
class SchemeBlob:
    """A deserialised container: name, size and per-node function bits."""

    scheme_name: str
    n: int
    functions: Dict[int, BitArray]

    @property
    def total_function_bits(self) -> int:
        """Sum of the packed routing-function lengths."""
        return sum(len(bits) for bits in self.functions.values())


def pack_scheme(scheme: RoutingScheme) -> bytes:
    """Serialise every local function of a scheme into one byte string."""
    writer = BitWriter()
    writer.write_uint(_MAGIC, 8)
    writer.write_uint(_VERSION, 8)
    name_bytes = scheme.scheme_name.encode("utf-8")
    name_bits = BitArray._from_packed(name_bytes, 8 * len(name_bytes))
    writer.write_prime(name_bits)
    writer.write_gamma(scheme.graph.n)
    for u in scheme.graph.nodes:
        writer.write_prime(scheme.encode_function(u))
    bits = writer.getvalue()
    # Length in bits travels in a 32-bit header so byte padding is explicit.
    header = len(bits).to_bytes(4, "big")
    return header + bits.to_bytes()


def unpack_blob(data: bytes) -> SchemeBlob:
    """Parse a packed scheme back into per-node bit strings.

    Hardened against hostile or damaged input: *every* malformed blob —
    truncated mid-field, garbage prime codes, a name that is not valid
    UTF-8, bytes past the header's length, set padding bits — raises
    :class:`CodecError` with context, never a leaked
    :class:`BitstreamError`, ``UnicodeDecodeError`` or ``IndexError``.
    """
    if len(data) < 4:
        raise CodecError("blob too short for its length header")
    bit_length = int.from_bytes(data[:4], "big")
    payload = data[4:]
    if bit_length > 8 * len(payload):
        raise CodecError("blob length header exceeds payload")
    if len(payload) != (bit_length + 7) // 8:
        raise CodecError(
            f"blob holds {len(payload)} payload bytes but its length header "
            f"of {bit_length} bits needs {(bit_length + 7) // 8}"
        )
    try:
        bits = BitArray._from_packed(payload, bit_length)
        reader = BitReader(bits)
        if reader.read_uint(8) != _MAGIC:
            raise CodecError("bad magic: not a packed routing scheme")
        version = reader.read_uint(8)
        if version != _VERSION:
            raise CodecError(f"unsupported scheme blob version {version}")
        name_bits = reader.read_prime()
        if len(name_bits) % 8:
            raise CodecError("scheme name is not byte-aligned")
        name_bytes = name_bits.to_bytes()
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError(f"scheme name is not valid UTF-8: {exc}") from exc
        n = reader.read_gamma()
        functions: Dict[int, BitArray] = {}
        for u in range(1, n + 1):
            try:
                functions[u] = reader.read_prime()
            except BitstreamError as exc:
                # A short blob must be reported as the structural lie it
                # is — declared n vs functions actually present — not as
                # a leaked bitstream exhaustion deep inside a prime code.
                raise CodecError(
                    f"blob declares n={n} but holds only {len(functions)} "
                    f"per-node functions ({exc})"
                ) from exc
        if not reader.at_end():
            raise CodecError(
                f"blob declares n={n} but {reader.remaining} bits of "
                "trailing data follow the last function"
            )
        if bits.to_bytes() != payload:
            raise CodecError("blob has non-zero padding after its last bit")
    except CodecError:
        raise
    except (BitstreamError, ValueError, OverflowError, MemoryError) as exc:
        raise CodecError(
            f"malformed scheme blob ({type(exc).__name__}: {exc})"
        ) from exc
    return SchemeBlob(scheme_name=name, n=n, functions=functions)


def restore_scheme(
    data: bytes, graph: LabeledGraph, model: RoutingModel, **params: Any
) -> RoutingScheme:
    """Rebuild a live scheme whose functions come from a packed blob.

    The scheme object is rebuilt from the graph/model (free knowledge) and
    every local function is then replaced by its decoded twin from the
    blob, so the restored scheme routes exactly as the packed one did.
    """
    blob = unpack_blob(data)
    if blob.n != graph.n:
        raise CodecError(
            f"blob is for n={blob.n} but the graph has n={graph.n}"
        )
    scheme = build_scheme(blob.scheme_name, graph, model, **params)
    for u in graph.nodes:
        scheme._function_cache[u] = scheme.decode_function(
            u, blob.functions[u]
        )
    return scheme
