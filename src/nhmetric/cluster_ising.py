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
the ground-state quantum metric - is built from these modes.  A dense
many-spin exact-diagonalization oracle validates the whole Wick/Pfaffian
pipeline at small N.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ModeSingularError, ModeSingularWarning
from .linalg import eig_right, pfaffian
from .metric import MetricRequest, MetricValue, _finite_difference
from .spinops import site_operator

#: |C| below this means the Bogoliubov factors u, v are indeterminate
MODE_SINGULAR_TOL = 1e-12

#: step used for the lambda-derivatives of the order parameters
DERIVATIVE_STEP = 1e-3

#: parameters along which :func:`ground_state_metric` is defined
METRIC_PARAMETERS = ("lam", "Gamma")


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
        if self.Gamma < 0:
            raise ValueError("Gamma must be >= 0")
        if self.n_modes < 2:
            raise ValueError("n_modes must be >= 2")
        if self.r_eval < 1:
            raise ValueError("r_eval must be >= 1")


@dataclass(frozen=True)
class BdGMode:
    """One momentum block: coefficients, energies and Bogoliubov factors.

    Satisfies ``u**2 + v**2 = 1`` (complex identity, not moduli) and
    ``E_plus = -E_minus = sqrt(z**2 + y**2)`` on the principal branch.
    """

    k: float
    y: float
    z: complex
    E_minus: complex
    E_plus: complex
    u: complex
    v: complex


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
    """Vectorized mode data: (y, z, E_minus, u, v, singular mask).

    The normalization constant obeys C^2 = 2 E_minus (E_minus + z); modes
    with |C| < MODE_SINGULAR_TOL are flagged instead of raising.
    """
    y, z = _yz(k, spec)
    E_minus = -np.sqrt(z * z + y * y)
    C2 = 2.0 * E_minus * (E_minus + z)
    singular = np.abs(C2) < MODE_SINGULAR_TOL**2
    C = np.sqrt(np.where(singular, 1.0, C2))
    u = (z + E_minus) / C
    v = -y / C
    return y, z, E_minus, u, v, singular


def bdg_mode(k: float, spec: ClusterSpec) -> BdGMode:
    """Solve the 2x2 block at momentum k in (0, pi).

    Raises :class:`ModeSingularError` where the Bogoliubov factors are
    indeterminate (gap-closing momenta).
    """
    if not 0.0 < k < np.pi:
        raise ValueError(f"k must lie in (0, pi), got {k}")
    karr = np.atleast_1d(np.asarray(k, dtype=float))
    y, z, E_minus, u, v, singular = _mode_arrays(karr, spec)
    if singular[0]:
        raise ModeSingularError(
            f"Bogoliubov factors indeterminate at k = {k:.12g} "
            f"(lam = {spec.lam}, Gamma = {spec.Gamma})"
        )
    return BdGMode(
        k=float(k),
        y=float(y[0]),
        z=complex(z[0]),
        E_minus=complex(E_minus[0]),
        E_plus=complex(-E_minus[0]),
        u=complex(u[0]),
        v=complex(v[0]),
    )


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
    """Pair contractions G_r = <B_l A_{l+r}>, S_r = <B_l B_{l+r}> = Q_r.

    ``G`` covers signed distances |r| <= r_max, ``S``/``Q`` distances
    1 <= r <= r_max and extend antisymmetrically to negative r.
    """

    r_max: int
    g_values: np.ndarray  # index r + r_max, r in [-r_max, r_max]
    s_values: np.ndarray  # index |r|, entry 0 is zero

    def G(self, r: int) -> complex:
        if abs(r) > self.r_max:
            raise ValueError(f"G_{r} not stored (r_max = {self.r_max})")
        return complex(self.g_values[r + self.r_max])

    def S(self, r: int) -> complex:
        if not 1 <= abs(r) <= self.r_max:
            raise ValueError(f"S_{r} not stored (r_max = {self.r_max})")
        sign = 1.0 if r > 0 else -1.0
        return complex(sign * self.s_values[abs(r)])

    def Q(self, r: int) -> complex:
        return self.S(r)


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
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    M = max(spec.n_modes, 32 * r_max) if nodes is None else int(nodes)
    k = _midpoint_momenta(M)
    _, _, _, u, v, singular = _mode_arrays(k, spec)
    if np.any(singular):
        warnings.warn(
            f"{int(np.sum(singular))} singular momenta excluded from the "
            "correlator quadrature",
            ModeSingularWarning,
            stacklevel=2,
        )

    norm = np.abs(u) ** 2 + np.abs(v) ** 2
    uvc = u * v.conj()
    w_k = (np.abs(u) ** 2 - np.abs(v) ** 2) / norm
    x_k = (uvc + uvc.conj()) / norm
    s_k = (uvc - uvc.conj()) / norm
    if np.any(singular):
        w_k = np.where(singular, 0.0, w_k)
        x_k = np.where(singular, 0.0, x_k)
        s_k = np.where(singular, 0.0, s_k)

    # one pass of the phase recurrence e^{ikr} -> e^{ik(r+1)} serves both
    # signs of r: cos(kr) is even and sin(kr) odd in r
    g_plus = np.zeros(r_max + 1, dtype=complex)  # G_r, r >= 0
    g_minus = np.zeros(r_max + 1, dtype=complex)  # G_{-r}, r >= 0
    s_plus = np.zeros(r_max + 1, dtype=complex)
    phase_step = np.exp(1j * k)
    cur = np.ones_like(phase_step)
    for r in range(r_max + 1):
        cos_sum_w = cur.real @ w_k
        sin_sum_x = cur.imag @ x_k
        sin_sum_s = cur.imag @ s_k
        g_plus[r] = (-cos_sum_w + sin_sum_x) / M
        g_minus[r] = (-cos_sum_w - sin_sum_x) / M
        s_plus[r] = sin_sum_s / M
        cur = cur * phase_step

    g_values = np.concatenate([g_minus[:0:-1], g_plus])
    s_plus[0] = 0.0
    return CorrelatorTable(r_max=r_max, g_values=g_values, s_values=s_plus)


# ---------------------------------------------------------------------------
# Pfaffian order parameters
# ---------------------------------------------------------------------------


def _wick_matrix(
    table: CorrelatorTable, sites: np.ndarray, is_a: np.ndarray
) -> np.ndarray:
    """Skew matrix of pair contractions for an ordered operator list.

    ``sites[i]`` is the lattice site of operator i and ``is_a[i]`` tells an
    A = c^dag + c operator from a B = c^dag - c one.  Entry (i, j) is the
    contraction <o_i o_j>; the construction is antisymmetric because G
    flips its argument and S, Q flip sign under transposition.
    """
    span = int(np.max(sites) - np.min(sites))
    if span > table.r_max:
        raise ValueError(
            f"operator span {span} exceeds stored table range {table.r_max}"
        )
    d = sites[None, :] - sites[:, None]
    off = table.r_max
    g_of_d = table.g_values[d + off]
    g_of_minus_d = table.g_values[-d + off]
    s_of_d = np.sign(d) * table.s_values[np.abs(d)]

    aa_or_bb = ~(is_a[:, None] ^ is_a[None, :])
    ba = ~is_a[:, None] & is_a[None, :]
    ab = is_a[:, None] & ~is_a[None, :]

    m = np.where(aa_or_bb, s_of_d, 0.0 + 0.0j)
    m = np.where(ba, g_of_d, m)
    m = np.where(ab, -g_of_minus_d, m)
    np.fill_diagonal(m, 0.0)
    return m


def _perm_sign(perm: np.ndarray) -> int:
    perm = np.asarray(perm, dtype=np.intp)
    seen = np.zeros(len(perm), dtype=bool)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _wick_pfaffian(m: np.ndarray, is_a: np.ndarray, hermitian_limit: bool) -> complex:
    """Pfaffian of an assembled contraction matrix.

    In the Hermitian limit all <AA> and <BB> contractions vanish and the
    Pfaffian collapses to a signed determinant of the <BA> block, which is
    far cheaper than the general Parlett-Reid reduction; the sign is the
    parity of the interleaving permutation times (-1)^(r(r-1)/2).
    """
    if hermitian_limit:
        a_idx = np.nonzero(is_a)[0]
        b_idx = np.nonzero(~is_a)[0]
        r = len(a_idx)
        block = m[np.ix_(b_idx, a_idx)]
        sign = _perm_sign(np.concatenate([b_idx, a_idx]))
        sign *= -1 if (r * (r - 1) // 2) % 2 else 1
        det = np.linalg.det(block.real if np.isrealobj(block) else block)
        return complex(sign * det)
    if np.max(np.abs(m.imag)) < 1e-14:
        return pfaffian(m.real)
    return pfaffian(m)


def _is_hermitian_table(table: CorrelatorTable) -> bool:
    return (
        np.max(np.abs(table.s_values)) < 1e-14
        and np.max(np.abs(table.g_values.imag)) < 1e-14
    )


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


def two_spin_correlation(table: CorrelatorTable, r: int) -> complex:
    """Two-spin y-y correlation R_r = (-1)^r pf of the 2r x 2r Wick matrix."""
    if r < 1:
        raise ValueError("r must be >= 1")
    sites, is_a = _two_spin_ops(r)
    m = _wick_matrix(table, sites, is_a)
    pf = _wick_pfaffian(m, is_a, _is_hermitian_table(table))
    return complex((-1) ** r * pf)


def string_correlation(table: CorrelatorTable, r: int) -> complex:
    """String x-correlation O_r = pf of the Wick matrix spanning r+2 sites.

    Needs table entries up to distance r + 1.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    sites, is_a = _string_ops(r)
    m = _wick_matrix(table, sites, is_a)
    pf = _wick_pfaffian(m, is_a, _is_hermitian_table(table))
    return complex(pf)


def order_parameters(spec: ClusterSpec) -> OrderParameters:
    """Order parameters at r = r_eval and their lambda-derivatives.

    my = sqrt(max(Re[(-1)^r R_r], 0)) estimates the staggered
    magnetization, Ox = (-1)^r O_r the string order; derivatives use a
    central difference of step 1e-3 in lam.
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


def _mode_states(spec: ClusterSpec, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized per-mode ground states in the {|0>, c+_k c+_{-k}|0>} basis.

    The state is proportional to (u, -v) = (z + E_minus, y)/C; the overall
    factor 1/C is a pure phase after normalization and drops out of every
    fidelity, so the moduli-normalized pair (z + E_minus, y) is used
    directly.  Modes where both components vanish are flagged singular.
    """
    y, z, E_minus, _, _, _ = _mode_arrays(k, spec)
    comp0 = z + E_minus
    comp1 = y.astype(complex)
    norm = np.sqrt(np.abs(comp0) ** 2 + np.abs(comp1) ** 2)
    singular = norm < MODE_SINGULAR_TOL
    safe = np.where(singular, 1.0, norm)
    return np.stack([comp0 / safe, comp1 / safe]), singular


def ground_state_metric(
    spec: ClusterSpec, parameter: str, step: float = 1e-4
) -> MetricValue:
    """Diagonal metric of the product ground state along lam or Gamma.

    The ground state factorizes over momenta k_m = (2m - 1) pi / (2 n_modes);
    the total fidelity is the product of two-component mode fidelities
    between the parameter values mu -+ step/2, so its log, and with it the
    metric, is the sum of the per-mode contributions.  Singular modes are
    excluded with a warning.  The step is halved as described in
    :func:`nhmetric.metric._finite_difference`.
    """
    MetricRequest(model=spec, parameter=parameter, step=step)
    if parameter not in METRIC_PARAMETERS:
        raise ValueError(f"parameter must be one of {METRIC_PARAMETERS}")
    k = _midpoint_momenta(spec.n_modes)

    def overlaps(lo: ClusterSpec, hi: ClusterSpec):
        st_lo, sing_lo = _mode_states(lo, k)
        st_hi, sing_hi = _mode_states(hi, k)
        excluded = sing_lo | sing_hi
        if np.any(excluded):
            warnings.warn(
                f"{int(np.sum(excluded))} singular momenta excluded from the "
                "ground-state metric",
                ModeSingularWarning,
                stacklevel=4,
            )
        fk = np.abs(np.sum(st_lo.conj() * st_hi, axis=0))
        fk = np.where(excluded, 1.0, np.minimum(fk, 1.0))
        # summing logs keeps the precision a product of near-one factors loses
        log_f = float(np.sum(np.log(fk)))
        return [float(np.exp(log_f))], [log_f]

    return _finite_difference(spec, parameter, step, overlaps)[0]


# ---------------------------------------------------------------------------
# Many-spin oracle
# ---------------------------------------------------------------------------


def build_cluster_chain(N: int, J: float, lam: float, Gamma: float) -> np.ndarray:
    """Dense 2^N x 2^N cluster Ising Hamiltonian under periodic boundaries."""
    dim = 2**N
    H = np.zeros((dim, dim), dtype=complex)
    for l in range(N):
        H -= J * site_operator(N, {l - 1: "x", l: "z", l + 1: "x"})
        H += lam * site_operator(N, {l: "y", l + 1: "y"})
        H += 0.5j * Gamma * site_operator(N, {l: "u"})
    return H


def ed_oracle(N: int, lam: float, Gamma: float, J: float = 1.0) -> EdOracleResult:
    """Direct expectations on the exact many-spin ground state (N <= 12).

    Diagonalizes the full 2^N matrix and measures, on the minimum-real
    eigenstate of even fermion parity (the product ground state's sector),
    the r = 1 two-spin correlation <sigma^y_1 sigma^y_2> and the r = 1
    string correlation <sigma^x_1 sigma^y_2 sigma^y_2 sigma^x_3> =
    <sigma^x_1 sigma^x_3>, independent of the Pfaffian machinery.
    """
    if not 2 <= N <= 12:
        raise ValueError("N must lie in [2, 12]")
    H = build_cluster_chain(N, J, lam, Gamma)
    system = eig_right(H)
    parity = site_operator(N, {l: "z" for l in range(N)})
    index = 0
    for i in range(len(system.eigenvalues)):
        psi_i = system.vectors[:, i]
        if np.vdot(psi_i, parity @ psi_i).real > 0.0:
            index = i
            break
    psi = system.vectors[:, index]

    ryy = site_operator(N, {0: "y", 1: "y"})
    # (sigma^y)^2 = 1 collapses the r = 1 string to the two ends
    string = site_operator(N, {0: "x", 2: "x"})
    return EdOracleResult(
        energy=complex(system.eigenvalues[index]),
        ryy_r1=complex(np.vdot(psi, ryy @ psi)),
        string_r1=complex(np.vdot(psi, string @ psi)),
        global_energy=complex(system.eigenvalues[0]),
    )
