"""Exact momentum-space solution of the non-Hermitian cluster Ising chain.

The chain combines a three-spin cluster term (strength J), a two-spin
Ising term (strength lam), and a uniform imaginary gain/loss term
(strength Gamma) acting through the spin-up projector.  After a
Jordan-Wigner and Fourier transformation each momentum pair (k, -k)
reduces to a 2x2 Bogoliubov-de Gennes block with coefficients

    y(k) = J sin(2k) + lam sin(k)
    z(k) = J cos(2k) - lam cos(k) - i Gamma / 4

and mode energies +-sqrt(z^2 + y^2).  Everything downstream - complex
gaps, Pfaffian correlators, string/antiferromagnetic order parameters and
the ground-state quantum metric - is built from these modes.  The pair
contractions are real (G) and imaginary (S), so a diagonal gauge of unit
determinant makes every Wick matrix real, and each Pfaffian is one LAPACK
Bunch-Kaufman factorization of -i times it.  A many-spin
exact-diagonalization oracle, by momentum and parity block, validates the
whole Wick/Pfaffian pipeline up to N = 14.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from . import spinops
from .errors import ModeSingularWarning
from .linalg import blas_threads, pfaffian
from .metric import MetricRequest, MetricValue, check_finite
from .spinops import SECTOR_MAX_N, site_operator

#: a gap |E_minus| below this closes: the mode's u, v are indeterminate
MODE_SINGULAR_TOL = 1e-12

#: step used for the lambda-derivatives of the order parameters
DERIVATIVE_STEP = 1e-3

#: the real-valued fields, in each of which y(k) and z(k) are linear
FIELDS = ("J", "lam", "Gamma")


@dataclass(frozen=True)
class ClusterSpec:
    """Parameters of the cluster Ising chain in units of J.

    ``n_modes`` momenta discretize (0, pi) for mode sums; ``r_eval`` is the
    correlator distance used as the large-r limit of the order parameters.
    """

    J: float = 1.0
    lam: float = 0.0
    Gamma: float = 0.0
    n_modes: int = 4096
    r_eval: int = 1000

    def __post_init__(self):
        check_finite(self)
        if self.Gamma < 0:
            raise ValueError("Gamma must be >= 0")
        if self.n_modes < 2:
            raise ValueError("n_modes must be >= 2")
        if self.r_eval < 1:
            raise ValueError("r_eval must be >= 1")

    OBSERVABLES = {
        "metric": lambda spec, parameter: ground_state_metric(spec, parameter).columns(),
        "gaps": lambda spec, parameter: dataclasses.asdict(gaps(spec)),
        "order_params": lambda spec, parameter: dataclasses.asdict(order_parameters(spec)),
    }

    def observe(self, names, parameter: str):
        """The columns of each observable in ``names``, in order; with no H, its readers take the spec."""
        return (self.OBSERVABLES[name](self, parameter) for name in names)


@dataclass(frozen=True)
class GapPair:
    """Minima over momentum of |Re dE| and |Im dE| of the excitation gap."""

    delta_R: float
    delta_I: float


@dataclass(frozen=True)
class OrderParameters:
    """Staggered magnetization, string order, and their lambda-derivatives."""

    my: float
    Ox: complex
    dOx_dlam: complex
    dmy_dlam: float


@dataclass(frozen=True)
class EdOracleResult:
    """Direct many-spin expectations for cross-checking the free-fermion path.

    ``energy`` and the correlators belong to the minimum-real-eigenvalue
    state of even fermion parity, the sector in which the closed-form
    product ground state is constructed; ``global_energy`` is the overall
    minimum-real eigenvalue, which can cross into the odd sector at small
    N for strong Ising coupling and gain/loss.
    """

    energy: complex
    ryy_r1: complex
    string_r1: complex
    global_energy: complex


def _yz(k: np.ndarray, spec: ClusterSpec) -> tuple[np.ndarray, np.ndarray]:
    y = spec.J * np.sin(2.0 * k) + spec.lam * np.sin(k)
    z = spec.J * np.cos(2.0 * k) - spec.lam * np.cos(k) - 0.25j * spec.Gamma
    return y, z


def _mode_arrays(k: np.ndarray, spec: ClusterSpec):
    """Vectorized mode data: (y, z, E_minus, z + E_minus, u, v, singular mask).

    z + E_minus cancels where |y| << |z|, so it is taken from the identity
    (z + E)(z - E) = -y**2 wherever z - E_minus is the larger factor.  The
    Bogoliubov factors are u = (z + E_minus) / C and v = -y / C with
    C^2 = 2 E_minus (z + E_minus).  Modes whose gap |E_minus| is below
    MODE_SINGULAR_TOL are flagged instead of raising.  With the gap open C
    vanishes only as y -> 0, where C -> |y| and (u, v) -> (0, -sign y);
    where C underflows to 0 that limit is taken.
    """
    y, z = _yz(k, spec)
    E_minus = -np.sqrt(z * z + y * y)
    z_plus, z_minus = z + E_minus, z - E_minus
    larger = np.abs(z_minus) > np.abs(z_plus)
    z_plus[larger] = -y[larger] ** 2 / z_minus[larger]
    C2 = 2.0 * E_minus * z_plus
    singular = np.abs(E_minus) < MODE_SINGULAR_TOL
    limit = (C2 == 0.0) & ~singular
    C = np.sqrt(np.where(singular | limit, 1.0, C2))
    u, v = z_plus / C, -y / C
    u[limit], v[limit] = 0.0, -np.copysign(1.0, y[limit])
    return y, z, E_minus, z_plus, u, v, singular


def _golden_min(f, a: float, b: float, iters: int = 80) -> float:
    """Golden-section minimum of a scalar function on [a, b]."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(fc, fd)


def gaps(spec: ClusterSpec) -> GapPair:
    """Real and imaginary parts of the complex excitation gap.

    Scans dE(k) = 2 sqrt(z^2 + y^2) on a dense uniform grid over [0, pi]
    and refines each minimum by golden-section search.
    """
    ks = np.linspace(0.0, np.pi, spec.n_modes)

    def gap_parts(k):
        k = np.asarray(k, dtype=float)
        y, z = _yz(k, spec)
        dE = 2.0 * np.sqrt(z * z + y * y)
        return np.abs(dE.real), np.abs(dE.imag)

    re_all, im_all = gap_parts(ks)

    def refine(values, part):
        i = int(np.argmin(values))
        lo = ks[max(i - 1, 0)]
        hi = ks[min(i + 1, len(ks) - 1)]
        f = lambda k: float(gap_parts(k)[part])
        return min(float(values[i]), _golden_min(f, lo, hi))

    return GapPair(delta_R=refine(re_all, 0), delta_I=refine(im_all, 1))


# ---------------------------------------------------------------------------
# Correlator table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrelatorTable:
    """Pair contractions G_r = <B_l A_{l+r}> and S_r = <B_l B_{l+r}> = <A_l A_{l+r}>.

    ``G`` covers signed distances |r| <= r_max, ``S`` distances
    1 <= r <= r_max and extends antisymmetrically to negative r.  G is
    real and S imaginary, so the table stores the real arrays G and S / i
    and refuses complex ones with ValueError; :meth:`G` and :meth:`S`
    return the contractions themselves.
    """

    r_max: int
    g_values: np.ndarray  # G_r at index r + r_max, r in [-r_max, r_max]
    s_values: np.ndarray  # S_r / i at index |r|, entry 0 is zero

    def __post_init__(self):
        for name in ("g_values", "s_values"):
            if np.iscomplexobj(getattr(self, name)):
                raise ValueError(f"{name} must be real (G is real, S / i is real)")

    def G(self, r: int) -> complex:
        if abs(r) > self.r_max:
            raise ValueError(f"G_{r} not stored (r_max = {self.r_max})")
        return complex(self.g_values[r + self.r_max])

    def S(self, r: int) -> complex:
        if not 1 <= abs(r) <= self.r_max:
            raise ValueError(f"S_{r} not stored (r_max = {self.r_max})")
        sign = 1.0 if r > 0 else -1.0
        return complex(0.0, sign * self.s_values[abs(r)])


def _midpoint_momenta(M: int) -> np.ndarray:
    # matches the antiperiodic-sector momenta of a 2M-site chain
    return (2.0 * np.arange(1, M + 1) - 1.0) * np.pi / (2.0 * M)


def correlator_elements(
    spec: ClusterSpec, r_max: int, nodes: int | None = None
) -> CorrelatorTable:
    """Quadrature of the contraction integrals on a dense midpoint k-grid.

    Uses M = max(n_modes, 32 r_max) nodes so the oscillatory factors
    sin(kr), cos(kr) keep >= ~16 nodes per period; the midpoint rule is
    spectrally accurate here and its nodes coincide with the discrete
    momenta of a finite chain of 2M sites.  Passing ``nodes`` pins M
    exactly (M = N/2 reproduces an N-site chain's even-sector correlators
    to machine precision, which is what the many-spin oracle compares
    against).  Singular momenta are excluded from the sums with a warning.

    At the nodes k_m = (2m - 1) pi / 2M every mode sum over m is, for all r
    at once, a length-2M transform of its weights times the twist
    e^{-i pi r / 2M}, so the table costs one real FFT, O(M log M).  The
    weights of G are real and those of S imaginary, which makes G real and
    S imaginary; the table holds the real arrays G and S / i.  The sums are
    antiperiodic in r with period 2M (G_{r+2M} = -G_r); the twist carries
    that sign when a pinned M is below r_max.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    M = max(spec.n_modes, 32 * r_max) if nodes is None else int(nodes)
    k = _midpoint_momenta(M)
    _, _, _, _, u, v, singular = _mode_arrays(k, spec)
    if np.any(singular):
        warnings.warn(
            f"{int(np.sum(singular))} singular momenta excluded from the "
            "correlator quadrature",
            ModeSingularWarning,
            stacklevel=2,
        )

    uu, vv, uvc = np.abs(u) ** 2, np.abs(v) ** 2, u * v.conj()
    # w_k, x_k and s_k / i: the cos weights of G and the sin weights of G and S
    weights = np.stack([uu - vv, 2.0 * uvc.real, 2.0 * uvc.imag]) / (uu + vv)
    weights[:, singular] = 0.0

    n = 2 * M
    r = np.arange(r_max + 1)
    q = r % n
    # P(q) = sum_m c_m e^{-2 pi i (m - 1) q / 2M}; real c gives P(2M - q) = conj P(q)
    spectrum = np.fft.rfft(weights, n=n)[:, np.minimum(q, n - q)]
    spectrum = np.where(q > M, spectrum.conj(), spectrum)
    transform = spectrum * np.exp(-1j * np.pi * r / n)  # sum_m c_m e^{-i k_m r}
    cos_w, sin_x, sin_s = transform[0].real, -transform[1].imag, -transform[2].imag

    g_plus = (sin_x - cos_w) / M  # G_r, r >= 0
    g_minus = (-sin_x - cos_w) / M  # G_{-r}, r >= 0
    s_plus = sin_s / M  # S_r / i, r >= 0
    s_plus[0] = 0.0
    g_values = np.concatenate([g_minus[:0:-1], g_plus])
    return CorrelatorTable(r_max=r_max, g_values=g_values, s_values=s_plus)


# ---------------------------------------------------------------------------
# Pfaffian order parameters
# ---------------------------------------------------------------------------


def _wick_matrix(
    table: CorrelatorTable, sites: np.ndarray, is_a: np.ndarray
) -> np.ndarray:
    """Real skew matrix of gauged pair contractions for an ordered operator list.

    ``sites[i]`` is the lattice site of operator i and ``is_a[i]`` tells an
    A = c^dag + c operator from a B = c^dag - c one.  The contraction
    <o_i o_j> at d = sites[j] - sites[i] is S(d) for two operators of one
    kind, G(d) for <B A> and -G(-d) for <A B>.  G is real and S imaginary,
    so the matrix is taken in the gauge B -> e^{-i pi/4} B, A -> e^{i pi/4} A:
    <B A> and <A B> keep their values, <B B> becomes S(d) / i and <A A>
    becomes -S(d) / i, and every entry is real.  The gauge is a congruence
    D M D with D diagonal, so the Pfaffian changes by det D =
    e^{i pi (n_A - n_B) / 4}, which is 1 for the operator lists here: each
    holds as many A's as B's.

    The gauged contractions form a real (kind_i, kind_j, d) table of
    W = 2 r_max + 1 distances, and the matrix is one gather from it raveled,
    at the flat index row_i + col_j with row = 2W kind - site + r_max and
    col = W kind + site.  The result is antisymmetric because G flips its
    argument and S flips sign under transposition; its diagonal is S(0) = 0.
    """
    span = int(np.max(sites) - np.min(sites))
    if span > table.r_max:
        raise ValueError(
            f"operator span {span} exceeds stored table range {table.r_max}"
        )
    s = table.s_values
    s_of_d = np.concatenate([-s[:0:-1], [0.0], s[1:]])  # S(d) / i
    g_of_d = table.g_values
    # kind 0 is B, kind 1 is A; the last axis is d + r_max
    contraction = np.array([[s_of_d, g_of_d], [-g_of_d[::-1], -s_of_d]]).ravel()
    W = 2 * table.r_max + 1
    kind = is_a.astype(np.intp)
    row = 2 * W * kind - sites + table.r_max
    col = W * kind + sites
    return contraction[row[:, None] + col[None, :]]


def _wick_pfaffian(m: np.ndarray, is_a: np.ndarray, hermitian_limit: bool) -> complex:
    """Pfaffian of a real gauged contraction matrix from :func:`_wick_matrix`.

    In general it is :func:`pfaffian` of the real matrix, one LAPACK
    Bunch-Kaufman factorization of -i m.  In the Hermitian limit all <AA>
    and <BB> contractions vanish and the Pfaffian collapses to a signed
    determinant of the <BA> block, which is far cheaper.  The sign is (-1)^(r(r-1)/2) times the
    parity of the reordering that moves every B before every A, keeping
    each kind in order.  That reordering inverts exactly the pairs of an A
    before a B, so its parity is (-1) to the number of A operators before
    each B, summed over the B operators.  The determinant runs on one BLAS
    thread, as :func:`pfaffian` does (the :mod:`nhmetric.linalg` rule).
    """
    if not hermitian_limit:
        return pfaffian(m)
    a_idx = np.nonzero(is_a)[0]
    b_idx = np.nonzero(~is_a)[0]
    r = len(a_idx)
    block = m[np.ix_(b_idx, a_idx)]
    inversions = int(np.sum(np.cumsum(is_a)[~is_a]))
    sign = (-1) ** (inversions + r * (r - 1) // 2)
    with blas_threads(1):
        det = np.linalg.det(block)
    return complex(sign * det)


def _is_hermitian_table(table: CorrelatorTable) -> bool:
    return not table.s_values.any()


def _two_spin_ops(r: int) -> tuple[np.ndarray, np.ndarray]:
    # A_l, B_{l+1}, A_{l+1}, ..., A_{l+r-1}, B_{l+r}  (l = 0)
    sites = [0]
    is_a = [True]
    for d in range(1, r):
        sites += [d, d]
        is_a += [False, True]
    sites.append(r)
    is_a.append(False)
    return np.array(sites), np.array(is_a)


def _string_ops(r: int) -> tuple[np.ndarray, np.ndarray]:
    # B_1, B_2, A_3, B_3, ..., A_r, B_r, A_{r+1}, A_{r+2}
    sites = [1, 2]
    is_a = [False, False]
    for l in range(3, r + 1):
        sites += [l, l]
        is_a += [True, False]
    sites += [r + 1, r + 2]
    is_a += [True, True]
    return np.array(sites), np.array(is_a)


def _correlation(table: CorrelatorTable, r: int, ops) -> complex:
    """Pfaffian of the Wick matrix of the operator list ``ops(r)``, r >= 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    sites, is_a = ops(r)
    m = _wick_matrix(table, sites, is_a)
    return _wick_pfaffian(m, is_a, _is_hermitian_table(table))


def two_spin_correlation(table: CorrelatorTable, r: int) -> complex:
    """Two-spin y-y correlation R_r = (-1)^r pf of the 2r x 2r Wick matrix."""
    return complex((-1) ** r * _correlation(table, r, _two_spin_ops))


def string_correlation(table: CorrelatorTable, r: int) -> complex:
    """String x-correlation O_r = pf of the Wick matrix spanning r+2 sites.

    Needs table entries up to distance r + 1.
    """
    return _correlation(table, r, _string_ops)


def order_parameters(spec: ClusterSpec) -> OrderParameters:
    """Order parameters at r = r_eval and their lambda-derivatives.

    my = sqrt(max(Re[(-1)^r R_r], 0)) estimates the staggered
    magnetization, Ox = (-1)^r O_r the string order; derivatives use a
    central difference of step 1e-3 in lam.  With Gamma > 0 a call takes
    six real Pfaffians of n = 2 r_eval: about 0.036 s at r_eval = 200 and
    1.8-2.1 s at r_eval = 1000 on one BLAS thread of a 2-vCPU x86-64 host.
    """

    def evaluate(lam: float) -> tuple[float, complex]:
        s = dataclasses.replace(spec, lam=lam)
        table = correlator_elements(s, r_max=spec.r_eval + 1)
        sign = (-1) ** spec.r_eval
        ry = two_spin_correlation(table, spec.r_eval)
        ox = string_correlation(table, spec.r_eval)
        my = float(np.sqrt(max((sign * ry).real, 0.0)))
        return my, complex(sign * ox)

    my0, ox0 = evaluate(spec.lam)
    my_hi, ox_hi = evaluate(spec.lam + DERIVATIVE_STEP)
    my_lo, ox_lo = evaluate(spec.lam - DERIVATIVE_STEP)
    return OrderParameters(
        my=my0,
        Ox=ox0,
        dOx_dlam=(ox_hi - ox_lo) / (2.0 * DERIVATIVE_STEP),
        dmy_dlam=(my_hi - my_lo) / (2.0 * DERIVATIVE_STEP),
    )


# ---------------------------------------------------------------------------
# Ground-state quantum metric
# ---------------------------------------------------------------------------


def ground_state_metric(spec: ClusterSpec, parameter: str) -> MetricValue:
    """Diagonal metric of the product ground state along J, lam or Gamma.

    The ground state factorizes over momenta k_m = (2m - 1) pi / (2 n_modes),
    so its metric is the sum of the Fubini-Study metrics of the mode states
    phi_k = (z + E_minus, y), the E_minus right eigenvectors of the blocks
    [[z, y], [y, -z]] (Provost & Vallee, Commun. Math. Phys. 76, 289
    (1980); Zanardi, Giorda & Cozzini, PRL 99, 100603 (2007)):

        g = sum_k |z dy - y dz|**2
                  / (|E_minus|**2 (|z + E_minus| + |z - E_minus|)**2),

    which is |phi|**2 |dphi|**2 - |<phi|dphi>|**2 over |phi|**4 without a
    difference of two large terms, reduced with |z + E_minus| |z - E_minus|
    = |y|**2 so that it stays finite as y -> 0.  y and z are linear in the
    three fields, so d(y, z) along one is exactly (y, z) at that field 1
    and the others 0: (sin 2k, cos 2k) along J, (sin k, -cos k) along lam
    and (0, -i/4) along Gamma.
    Singular modes (those :func:`correlator_elements` excludes) are
    excluded with a warning.  ``fidelity`` is exp(-g d**2 / 2) at
    d = :data:`~nhmetric.metric.STENCIL_STEP`, as for the other models.
    """
    MetricRequest(model=spec, parameter=parameter)
    k = _midpoint_momenta(spec.n_modes)
    y, z, E_minus, z_plus, _, _, singular = _mode_arrays(k, spec)
    if np.any(singular):
        warnings.warn(
            f"{int(np.sum(singular))} singular momenta excluded from the "
            "ground-state metric",
            ModeSingularWarning,
            stacklevel=2,
        )
    dy, dz = _yz(k, spinops.unit_field(spec, FIELDS, parameter))
    denom = np.abs(E_minus) ** 2 * (np.abs(z_plus) + np.abs(z - E_minus)) ** 2
    g_k = np.abs(z * dy - y * dz) ** 2 / np.where(singular, 1.0, denom)
    return MetricValue.at(np.sum(g_k, where=~singular))


# ---------------------------------------------------------------------------
# Many-spin oracle
# ---------------------------------------------------------------------------


def _chain_terms(J: float, lam: float, Gamma: float):
    """The terms at site 0 whose translates over all N sites sum to the periodic H."""
    return ((-J, {-1: "x", 0: "z", 1: "x"}), (lam, {0: "y", 1: "y"}), (0.5j * Gamma, {0: "u"}))


@dataclass(frozen=True)
class ClusterSector(spinops.Sector):
    """The block of the periodic N-spin chain at momentum 2 pi m / N and one parity.

    The cluster chain conserves momentum and the parity prod sigma^z
    (``parity`` +1 or -1); the block, its dH and its embedding come from
    :class:`spinops.Sector`.
    """

    J: float = 1.0
    lam: float = 0.0
    Gamma: float = 0.0

    FIELDS = FIELDS

    def terms(self):
        return _chain_terms(self.J, self.lam, self.Gamma)


def build_cluster_chain(N: int, J: float, lam: float, Gamma: float) -> np.ndarray:
    """Dense 2^N x 2^N periodic H (:func:`spinops.dense_operator`), real when Gamma = 0."""
    return spinops.dense_operator(N, _chain_terms(J, lam, Gamma), periodic=True)


def ed_oracle(N: int, lam: float, Gamma: float, J: float = 1.0) -> EdOracleResult:
    """Direct expectations on the exact many-spin ground state (2 <= N <= 14).

    H is diagonalized block by block, the momenta m = 0..N/2 in each parity
    of prod sigma^z, about 2^N / 2N states a block
    (:func:`spinops.diagonalize`).  On the minimum-real eigenstate of the
    even (+1) blocks, the product ground state's sector, embedded into the
    2^N basis, it measures the r = 1 two-spin correlation
    <sigma^y_1 sigma^y_2> and the r = 1 string correlation
    <sigma^x_1 sigma^y_2 sigma^y_2 sigma^x_3> = <sigma^x_1 sigma^x_3>,
    independent of the Pfaffian machinery.  ``global_energy`` is the lower,
    by (Re, Im), of the two parities' state 0.  ``build_cluster_chain`` is
    the dense oracle of the blocks.
    """
    if not 2 <= N <= SECTOR_MAX_N:
        raise ValueError(f"N must lie in [2, {SECTOR_MAX_N}]")

    even = spinops.diagonalize(ClusterSector(N, 0, 1, J, lam, Gamma))
    odd = spinops.diagonalize(ClusterSector(N, 0, -1, J, lam, Gamma)).eigenvalues
    energies, psi = even.eigenvalues, even.ground

    def expectation(op):
        rows, amp = op
        return complex(np.vdot(psi[rows], amp * psi))

    # (sigma^y)^2 = 1 collapses the r = 1 string to the two ends
    return EdOracleResult(
        energy=complex(energies[0]),
        ryy_r1=expectation(site_operator(N, {0: "y", 1: "y"})),
        string_r1=expectation(site_operator(N, {0: "x", 2: "x"})),
        global_energy=complex(min(energies[0], odd[0], key=lambda e: (e.real, e.imag))),
    )
