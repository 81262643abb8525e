"""Bit-exact graph6 codec for n <= 62.

Format: one size byte (n + 63), then the upper-triangle adjacency bits in
column-major order ((0,1),(0,2),(1,2),(0,3),...), six bits per byte, each
byte offset by 63, zero-padded to a byte boundary.
"""
from __future__ import annotations

from .errors import GraphFormatError, UnsupportedSizeError
from .graph import Graph

#: largest order with a one-byte graph6 size
GRAPH6_MAX_N = 62


def graph6_encode(g: Graph) -> str:
    if g.n > GRAPH6_MAX_N:
        raise UnsupportedSizeError(f"graph6 supports n <= {GRAPH6_MAX_N}, got {g.n}")
    out = [chr(g.n + 63)]
    buf = 0
    nbits = 0
    for v in range(1, g.n):
        col = g.adj[v]
        for u in range(v):
            buf = buf << 1 | (col >> u & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(buf + 63))
                buf = 0
                nbits = 0
    if nbits:
        out.append(chr((buf << (6 - nbits)) + 63))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise GraphFormatError("empty graph6 string")
    c0 = ord(s[0])
    if c0 == 126:
        raise UnsupportedSizeError("multi-byte graph6 sizes (n > 62) are not supported")
    if not 63 <= c0 <= 126:
        raise GraphFormatError(f"size byte {c0} out of range 63..126 at offset 0")
    n = c0 - 63
    if n == 0:
        raise GraphFormatError("graph6 string encodes the order-0 graph; n >= 1 required")
    nbits = n * (n - 1) // 2
    ndata = (nbits + 5) // 6
    if len(s) - 1 != ndata:
        raise GraphFormatError(
            f"expected {ndata} data bytes for n={n}, got {len(s) - 1}")
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    masks = [0] * n
    bit = 0
    for offset in range(1, len(s)):
        c = ord(s[offset])
        if not 63 <= c <= 126:
            raise GraphFormatError(f"data byte {c} out of range 63..126 at offset {offset}")
        val = c - 63
        for shift in range(5, -1, -1):
            b = val >> shift & 1
            if bit < nbits:
                if b:
                    u, v = pairs[bit]
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            elif b:
                raise GraphFormatError(f"nonzero padding bit at offset {offset}")
            bit += 1
    return Graph(n, tuple(masks))

