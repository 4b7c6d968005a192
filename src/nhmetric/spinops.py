"""Pauli strings on a spin chain, built by bit arithmetic on basis indices,
and the momentum basis of a periodic chain, in which it is solved block by
block.

Basis convention: basis state c of an N-site chain holds site l in bit
N - 1 - l (site 0 is the most significant bit), a 0 bit is spin up, and
sigma_z = diag(1, -1).  This module is the only place that knows it.

A spin chain is written once, as a term list: pairs (c_t, ops_t) of a
coefficient and a Pauli string P_t as :func:`site_operator` takes it, whose
translates sum to H = sum_l T^l (sum_t c_t P_t) T^-l.  The list gives its
dense matrix (:func:`dense_operator`), its momentum blocks
(:func:`momentum_block`) and, at a unit field, its exact dH
(:func:`unit_field`).

Momentum basis (Sandvik, AIP Conf. Proc. 1297, 135 (2010),
arXiv:1101.3281): the translation T moves site l to l + 1 mod N, a cyclic
rotation of the bits.  Each orbit of T is labelled by its representative,
the smallest basis state in it, and has a period R (T^R a = a).  At
momentum k = 2 pi m / N an orbit whose k R is a multiple of 2 pi carries
the unit state

    |a(k)> = R^-1/2 sum_{j<R} e^{-ikj} T^j |a>,

and other orbits carry none.  A translation-invariant H = sum_l T^l h T^-l
is block-diagonal in k, and so is the parity prod sigma^z (-1 to the number
of down spins) of a term that conserves it.  If h|a> holds amplitude c on
a state that T^l takes to the representative b, the block gains
c e^{-ikl} (R_a / R_b)^1/2 in row b, column a.  The orbit tables, and
each string's entries in each block, are built on first use and kept.

Site reflection l -> -l maps T to T^-1, so it maps the block at k onto the
block at -k and commutes with prod sigma^z.  A term list invariant under it
(each string reflected is a translate of itself) therefore has one
spectrum in the blocks m and N - m.  A periodic chain is a :class:`Sector`
subclass that holds its fields and writes its term list; the sector gives
each block's H and dH, and :func:`diagonalize` solves the blocks
m = 0, ..., N // 2 of any one sector's chain and returns the whole
spectrum with the block and eigensystem of state 0, and state 0 on the
2^N basis (:func:`embed`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .linalg import Diagonalized, eig_right

#: largest N whose dense 2^N x 2^N matrices the spin chains build
DENSE_MAX_N = 12

#: largest N of a periodic spin chain, diagonalized block by block in momentum
SECTOR_MAX_N = 14

# label: (flips the bit, amplitude on an up bit, amplitude on a down bit);
# "u" projects onto spin up, the gain/loss operator of the cluster chain
_ACTION = {
    "x": (True, 1.0, 1.0),
    "y": (True, 1j, -1j),
    "z": (False, 1.0, -1.0),
    "u": (False, 1.0, 0.0),
}


def _act(N: int, ops: dict[int, str], states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``site_operator`` on the basis states ``states`` only."""
    rows, amp = states, np.ones(len(states))
    # the rightmost factor acts on the ket first
    for site, label in reversed(list(ops.items())):
        if label not in _ACTION:
            raise ValueError(f"unknown single-site operator {label!r}")
        flips, up, down = _ACTION[label]
        bit = 1 << (N - 1 - site % N)
        amp = amp * np.where(rows & bit, down, up)
        if flips:
            rows = rows ^ bit
    return rows, amp


def site_operator(N: int, ops: dict[int, str]) -> tuple[np.ndarray, np.ndarray]:
    """Product of single-site factors, identity elsewhere, as ``(rows, amp)``.

    ``ops`` maps site index (0-based, reduced mod N) to "x", "y", "z" or "u";
    factors on one site multiply in dict order, leftmost first.  The product
    has one entry per column: column c holds ``amp[c]`` in row ``rows[c]``.
    ``amp`` is real unless a "y" factor is present.
    """
    return _act(N, ops, np.arange(2**N))


def check_dense(N: int) -> None:
    """Raise ValueError if a dense 2^N x 2^N matrix lies beyond :data:`DENSE_MAX_N`."""
    if N > DENSE_MAX_N:
        raise ValueError(f"a dense 2^N matrix needs N <= {DENSE_MAX_N}, got N = {N}")


def dense_operator(N: int, terms, periodic: bool) -> np.ndarray:
    """Dense 2^N x 2^N H of the term list ``terms``; open boundaries keep the translates inside.

    Each string is summed over its translates, exactly, before c_t
    multiplies it: a sum of c_t-weighted translates rounds differently and
    can swap a tied conjugate pair.  H is real when every c_t P_t is, and
    allocated once at that dtype; ValueError for N > DENSE_MAX_N before.
    """
    check_dense(N)
    terms = [(coeff, ops) for coeff, ops in terms if coeff != 0]
    # the amplitudes of P_t are i^(its number of y factors) times real numbers
    real = all(np.imag(c * 1j ** list(ops.values()).count("y")) == 0 for c, ops in terms)
    H = np.zeros((2**N, 2**N), dtype=float if real else complex)
    columns = np.arange(2**N)
    for coeff, ops in terms:
        shifts = range(N) if periodic else range(-min(ops), N - max(ops))
        moved = [{site + l: label for site, label in ops.items()} for l in shifts]
        # a product of flips is one XOR mask; translates sharing a mask fill rows columns ^ mask
        masks = [int(_act(N, t, columns[:1])[0][0]) for t in moved]
        for mask in dict.fromkeys(masks):
            value = coeff * sum(_act(N, t, columns)[1] for t, f in zip(moved, masks) if f == mask)
            H[columns ^ mask, columns] += value.real if real else value
            del value  # so the peak stays H plus one string's temporaries
    return H


def unit_field(model, fields: tuple[str, ...], parameter: str):
    """``model`` at ``parameter`` 1 and its other ``fields`` 0: dH, where H is linear in them."""
    if parameter not in fields:
        raise ValueError(f"{type(model).__name__} has no real-valued field {parameter!r}")
    return replace(model, **{**dict.fromkeys(fields, 0.0), parameter: 1.0})


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: the cached tables are shared by every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class _Orbits:
    """Orbits of T on the basis of an N-site chain."""

    reps: np.ndarray  # representative of each orbit, ascending
    period: np.ndarray  # period of each orbit
    index: np.ndarray  # per basis state: the index of its orbit
    shift: np.ndarray  # per basis state: the l with T^l state = its representative
    parity: np.ndarray  # prod sigma^z of each orbit, +1 or -1


@functools.cache
def _orbits(N: int) -> _Orbits:
    states = np.arange(2**N)
    rep, shift = states.copy(), np.zeros_like(states)
    period = np.full_like(states, N)
    moved = states
    for l in range(1, N):
        # T moves site l (bit N - 1 - l) to l + 1: a right rotation of the bits
        moved = (moved >> 1) | ((moved & 1) << (N - 1))
        smaller = moved < rep
        rep[smaller], shift[smaller] = moved[smaller], l
        period[(moved == states) & (period == N)] = l
    reps = np.flatnonzero(rep == states)
    parity = _act(N, {l: "z" for l in range(N)}, reps)[1].astype(int)
    return _Orbits(*_frozen(reps, period[reps], np.searchsorted(reps, rep), shift, parity))


@functools.cache
def _phases(N: int) -> np.ndarray:
    """e^{-2 pi i r / N} for r < N; entry N - r is the exact conjugate of entry r."""
    r = np.arange(N // 2 + 1)
    half = np.exp(-2j * np.pi * r / N)
    quarter = (4 * r) % N == 0
    half[quarter] = np.array([1.0, -1j, -1.0])[4 * r[quarter] // N]
    return _frozen(np.concatenate([half, half[1 : (N + 1) // 2][::-1].conj()]))[0]


@functools.cache
def _translates(N: int, ops: tuple[tuple[int, str], ...]):
    """Every translate of one Pauli string applied to every representative.

    Returns ``(a, b, l, amp, hermitian)``: translate-and-orbit pairs whose
    string sends representative ``a`` (an orbit index) to amplitude ``amp``
    on a state that T^l takes to representative ``b``, and whether the
    string is a Hermitian operator, decided exactly on the 2^N basis.
    """
    orbits = _orbits(N)
    rows, amp = zip(*(_act(N, {site + l: label for site, label in ops}, orbits.reps) for l in range(N)))
    rows, amp = np.concatenate(rows), np.concatenate(amp)
    a = np.tile(np.arange(len(orbits.reps)), N)
    keep = amp != 0
    flips, flip_amp = site_operator(N, dict(ops))
    # the flips are one XOR mask, an involution, so only the amplitudes can break O = O^H
    hermitian = np.array_equal(flip_amp[flips], flip_amp.conj())
    rows = rows[keep]
    return (*_frozen(a[keep], orbits.index[rows], orbits.shift[rows], amp[keep]), hermitian)


@functools.cache
def _sector(N: int, m: int, parity: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """The orbits of N sites in the block at momentum m and ``parity``, their rows, its size."""
    if not 0 <= m < N:
        raise ValueError(f"momentum index m must lie in [0, {N}), got {m}")
    if parity not in (None, 1, -1):
        raise ValueError(f"parity must be None, 1 or -1, got {parity!r}")
    orbits = _orbits(N)
    member = (m * orbits.period) % N == 0
    if parity is not None:
        member &= orbits.parity == parity
    pos = np.cumsum(member) - 1
    return (*_frozen(member, pos), int(pos[-1]) + 1)


def block_dimension(N: int, m: int, parity: int | None = None) -> int:
    """Dimension of the block at momentum 2 pi m / N (and ``parity``, if given)."""
    return _sector(N, m, parity)[2]


@functools.cache
def _string_block(N: int, ops: tuple[tuple[int, str], ...], m: int, parity: int | None):
    """The nonzero entries of one string's block, as (flat indices, values); kept per block.

    The values are real where every entry is, and a Hermitian string's are
    those of (P + P^H) / 2.  The cache holds O(nnz) arrays, never a dense
    block.
    """
    orbits = _orbits(N)
    member, pos, d = _sector(N, m, parity)
    a, b, l, amp, hermitian = _translates(N, ops)
    keep = member[a] & member[b]
    a, b, l, amp = a[keep], b[keep], l[keep], amp[keep]
    value = amp * _phases(N)[(m * l) % N] * np.sqrt(orbits.period[a] / orbits.period[b])
    flat = pos[b] * d + pos[a]
    P = np.bincount(flat, value.real, d * d) + 1j * np.bincount(flat, value.imag, d * d)
    if hermitian:
        P = P.reshape(d, d)
        P = ((P + P.conj().T) / 2).ravel()
    if not P.imag.any():
        P = P.real
    flat = np.flatnonzero(P)
    return _frozen(flat, P[flat])


def momentum_block(N: int, terms, m: int, parity: int | None = None) -> np.ndarray:
    """Block at momentum 2 pi m / N of the H of the term list ``terms``.

    Rows and columns run over the states |a(k)> of the module docstring, in
    ascending order of their representatives, restricted to one parity of
    prod sigma^z if ``parity`` is +1 or -1 (which needs every string to
    conserve that parity).  The block of each Hermitian string is made
    exactly Hermitian, (P + P^H) / 2, so real coefficients give an exactly
    Hermitian block.  The result is real where every entry is.
    """
    d = _sector(N, m, parity)[2]
    strings = [
        (coeff.real if np.imag(coeff) == 0 else coeff, *_string_block(N, tuple(ops.items()), m, parity))
        for coeff, ops in terms
        if coeff != 0
    ]
    real = all(np.isrealobj(c) and np.isrealobj(values) for c, _, values in strings)
    H = np.zeros(d * d, dtype=float if real else complex)
    for coeff, flat, values in strings:
        H[flat] += coeff * values
    return H.reshape(d, d)


def embed(N: int, vectors: np.ndarray, m: int, parity: int | None = None) -> np.ndarray:
    """Amplitudes on the 2^N basis of block vectors (one per column, or one 1-D vector).

    The states |a(k)> of :func:`momentum_block` written out: a basis state
    in the orbit of representative a, which T^l takes to a, gets the block
    amplitude of a times e^{ikl} / R_a^1/2.  The map is an isometry.
    """
    orbits = _orbits(N)
    member, pos, _ = _sector(N, m, parity)
    vectors = np.asarray(vectors)
    inside = member[orbits.index]
    coeff = np.zeros(2**N, dtype=complex)
    coeff[inside] = _phases(N)[(m * orbits.shift[inside]) % N].conj() / np.sqrt(
        orbits.period[orbits.index[inside]]
    )
    rows = vectors[np.where(inside, pos[orbits.index], 0)]
    return coeff.reshape(-1, *[1] * (vectors.ndim - 1)) * rows


@dataclass(frozen=True)
class Sector:
    """The block of a periodic chain at momentum k = 2 pi m / N, in one parity if given.

    A subclass adds the chain's real-valued fields, lists those in which H
    is linear in ``FIELDS``, and writes ``terms()``, the chain's term list.
    ``build`` and ``derivative`` then give the block of H and of dH over
    the sector's states.  A chain that conserves no parity takes ``parity``
    out of its constructor.  A model for the metric and its
    finite-difference fallback, not a sweep kind.
    """

    N: int
    m: int
    parity: int | None = None

    FIELDS: ClassVar[tuple[str, ...]] = ()

    def build(self) -> np.ndarray:
        return momentum_block(self.N, self.terms(), self.m, self.parity)

    def derivative(self, parameter: str) -> np.ndarray:
        """Exact block of dH along one of ``FIELDS``; ValueError otherwise."""
        return unit_field(self, self.FIELDS, parameter).build()


def diagonalize(sector: Sector) -> Diagonalized:
    """The periodic chain of ``sector`` in its parity, solved from its blocks m <= N / 2.

    ``sector`` is any block of a term list invariant under site reflection
    (module docstring); its momentum is not read.  Each nonempty block
    m = 0, ..., N // 2 is solved by one :func:`~nhmetric.linalg.eig_right`,
    and block N - m reuses the eigensystem of block m, so a block with
    0 < m < N - m counts twice.  ``eigenvalues`` is the spectrum of every
    block, sorted as ``eig_right`` sorts; ``model`` is the sector that
    holds state 0 and ``system`` its eigensystem, whose state 0 it is,
    and ``ground`` that state on the 2^N basis.  An exact tie goes to the
    block of smaller m.
    """
    N = sector.N
    blocks = [replace(sector, m=m) for m in range(N // 2 + 1)]
    solved = {b.m: (b, eig_right(b.build())) for b in blocks if block_dimension(N, b.m, b.parity)}
    # block m = 0, ..., N - 1 in turn, each by the solved block min(m, N - m)
    owners = [min(m, N - m) for m in range(N) if min(m, N - m) in solved]
    w = np.concatenate([solved[m][1].eigenvalues for m in owners])
    owner = np.repeat(owners, [solved[m][1].dim for m in owners])
    order = np.lexsort((w.imag, w.real))
    block, system = solved[int(owner[order[0]])]
    return Diagonalized(block, system, w[order], embed(N, system.vectors[:, 0], block.m, block.parity))
