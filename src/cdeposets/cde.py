"""CDE / mCDE decisions and tCDE certificates for ideal lattices.

A poset is CDE when its maxchain expectation of ddeg equals its edge
density, and mCDE when every k-chain expectation does.  ``cde_report`` runs
the k-chain pass of ``distributions._chain_moments`` for all of them.  The
maxchain expectation alone comes from the cheaper saturated-chain sweep,
``_maxchain_expectation``; on J(P) every maximal chain is a |P|-chain, so it
is the last k-chain expectation, and a lattice that is not CDE is not mCDE
either.  ``scan_family`` therefore decides ``cde`` rows from the sweep alone
and runs ``cde_report`` on an ``mcde`` row only when the row is CDE.

A lattice J(P) is tCDE exactly when ddeg - c*1 lies in the span of the
signed toggleability statistics T_p = T+_p - T-_p.  Soundness is immediate:
taking expectations of the pointwise identity against any toggle-symmetric
distribution kills every T_p term.  Completeness holds because the uniform
distribution is a strictly positive toggle-symmetric distribution, so the
affine hull of the toggle-symmetric polytope is cut out exactly by the
equalities {sum mu = 1, <T_p, mu> = 0}; a linear functional is constant on
the polytope iff it is constant on that affine subspace, i.e. iff it lies in
span{1, T_p}.  The witness constructor below is the computational dual: when
the span test fails it produces an explicit toggle-symmetric distribution
with a deviating expectation.

Both questions are answered from small integer systems rather than from the
|J|-row system A (c, kappa) = ddeg, A = [1 | T_p], itself:

* Certificate.  Each column of A is a pair of bitsets over the ideals (its +1
  and -1 positions), so the inner product of two columns is two popcounts,
  the +1 and -1 sets of each being disjoint.  The columns are the
  ``up``/``down`` masks transposed, and A^T ddeg comes from the bit-planes
  of ddeg, transposed the same way: the masks' bytes are joined into one
  int, formatted once in binary, and each bit is read back as one strided
  slice.  Most of the Gram matrix G = A^T A is 0 and is never counted.  The
  toggle bijection I <-> I + {p}, from the ideals where p is addable onto
  those where it is removable, gives <1, T_p> = 0, and it gives
  <T_p, T_q> = sum over the I where p is addable of T_q(I) - T_q(I + {p}).
  Adding p changes T_q only when p covers q or q covers p: for q outside I,
  T_q asks whether every lower cover of q is in I, and for q in I, whether
  no upper cover is.  So only |J|, the n diagonal entries, the cover pairs
  of P and, with the empty/full column, its row are counted.  Since
  null(A^T A) = null(A), G has the same lex-first independent columns as A;
  with free variables zero, G x = A^T ddeg therefore has exactly the solution
  the |J|-row system would have whenever that system is consistent.
  ``linalg.solve``, an elimination for symmetric positive semidefinite
  integer matrices, runs on G bordered by A^T ddeg and <ddeg, ddeg>, that
  is on H = [A | ddeg]^T [A | ddeg], with ddeg as the target.  It gives the
  candidate as integers (d, x, r) with d (c, kappa) = x and
  r = d ||ddeg - A x / d||^2, the target's reduced diagonal, with no pass
  over the ideals; the lattice is tCDE exactly when r is 0.  Summed over
  J(P) the identity reads c |J| = sum ddeg, since every T_p and the
  empty/full column sum to 0, so a certified c must be the edge density;
  that is checked too, as are the normal equations on every row.  Only the
  certificate's coefficients become Fractions.  ``validate`` reads the same
  counts: scaled to an integer vector v = (x, -s), a certificate holds on
  every ideal exactly when ||[A | ddeg] v||^2 = v^T H v is 0.
* Witness.  The perturbation v solving [1; T_p; ddeg] v = e_last with free
  variables zero is supported on the lex-first independent columns of that
  (n+2) x |J| matrix, one column per ideal in canonical order.
  ``linalg._eliminate`` reads the ideals' columns in that order and stops
  at the first chosen column that puts e_last in their span, which is the
  first one to pivot on the ddeg row.  A column is nonzero only at the 1
  and ddeg rows and at the rows of its ideal's up and down masks, so
  ``_ideal_columns`` hands it over as those (row, value) pairs, and it is
  reduced as one sparse combination of the reduced unit vectors of those
  rows, each brought up to date when a column needs it.  The solution on
  that prefix is unique, so padded with zeros it is the free-variables-zero
  solution on all of the lex-first independent columns; v is read off the
  same elimination, as d * v = y in integers, and re-checked.  With
  z = sign(d) y, Y = max(-z_i) and N = |J|, the witness weights
  1/N + (eps/2) v_i are exactly (2Y + z_i) / (2NY), so the witness keeps
  integer numerators over one denominator and is validated and emitted
  without rational arithmetic per ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm
from operator import mul
from typing import Optional

from . import linalg
from .distributions import _chain_moments, _maxchain_weights, is_toggle_symmetric
from .ideals import DEFAULT_IDEAL_BUDGET, IdealLattice, LatticeBudgetError, build_lattice
from .serialize import rat_str


@dataclass(frozen=True)
class CdeReport:
    n: int
    edge_density: Fraction
    maxchain_expectation: Fraction
    chain_expectations: tuple[Fraction, ...]
    is_cde: bool
    is_mcde: bool
    # (A_k, B_k) for k = 0..r: the number of k-chains and the sum over them
    # of ddeg summed along the chain
    chain_moments: tuple[tuple[int, int], ...] = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "edge_density": rat_str(self.edge_density),
            "maxchain_expectation": rat_str(self.maxchain_expectation),
            "chain_expectations": [rat_str(x) for x in self.chain_expectations],
            "is_cde": self.is_cde,
            "is_mcde": self.is_mcde,
        }

    def multichain_expectations(self, m: int) -> tuple[Fraction, Fraction]:
        """(E(mchain_m; ddeg), E(mmchain_m; ddeg)): sum_k c_k B_k over
        sum_k c_k (k+1) A_k for k <= min(m, r), with c_k = C(m, k) for mchain
        and C(m+1, k+1) for mmchain."""
        if m < 0:
            raise ValueError("m must be >= 0")
        rows = list(enumerate(self.chain_moments[: m + 1]))

        def mean(coeff) -> Fraction:
            return Fraction(
                sum([coeff(k) * b for k, (_, b) in rows]),
                sum([coeff(k) * (k + 1) * a for k, (a, _) in rows]),
            )

        return mean(lambda k: comb(m, k)), mean(lambda k: comb(m + 1, k + 1))


def _ddeg_stat(X):
    if isinstance(X, IdealLattice):
        return X.ddeg
    return tuple([X.ddeg(p) for p in range(X.n)])


def _maxchain_expectation(X, ddeg) -> Fraction:
    """E(maxchain; ddeg) from the saturated-chain sweep: sum w ddeg / sum w,
    w the number of maximal chains through each element.  On J(P) every
    maximal chain has |P| + 1 ideals, so this is the last k-chain
    expectation, with no chain pass."""
    w = _maxchain_weights(X)
    return Fraction(sum(map(mul, w, ddeg)), sum(w))


def cde_report(X) -> CdeReport:
    """Edge density, maxchain and all k-chain expectations, CDE/mCDE flags.

    Every chain statistic comes from one pass, ``_chain_moments``, which
    carries, per element, the polynomials counting the chains topped there
    and their ddeg totals, packed into one int, and reads A_k and B_k for
    every k off their sum; the report keeps them for the multichain
    expectations.
    On J(P) every maximal chain is an |P|-chain, so the maxchain expectation
    is the last k-chain one; a raw poset need not be graded and weights ddeg
    by the number of maximal chains through each element.
    """
    if X.n == 0:
        raise ValueError("the empty poset has no elements to average over")
    ddeg = _ddeg_stat(X)
    density = Fraction(X.edge_count(), X.n)
    moments = tuple(_chain_moments(X, ddeg))
    chains = tuple([Fraction(b, (k + 1) * a) for k, (a, b) in enumerate(moments)])
    if isinstance(X, IdealLattice):
        maxexp = chains[-1]
    else:
        maxexp = _maxchain_expectation(X, ddeg)
    return CdeReport(
        n=X.n,
        edge_density=density,
        maxchain_expectation=maxexp,
        chain_expectations=chains,
        is_cde=maxexp == density,
        is_mcde=all(x == density for x in chains),
        chain_moments=moments,
    )


@dataclass(frozen=True)
class TcdeCertificate:
    """Pointwise identity ddeg(I) = c + sum_p kappa_p * (T+_p(I) - T-_p(I)),
    plus empty_full * ([I = empty] - [I = full]) under the empty/full
    constraint."""

    c: Fraction
    kappa: tuple[Fraction, ...]
    empty_full: Fraction = Fraction(0)

    def validate(self, L: IdealLattice) -> bool:
        return _identity_holds(L, self.c, self.kappa, 1, self.empty_full)

    def to_dict(self) -> dict:
        out = {
            "kind": "tcde_certificate",
            "c": rat_str(self.c),
            "kappa": [rat_str(k) for k in self.kappa],
        }
        if self.empty_full:
            out["empty_full"] = rat_str(self.empty_full)
        return out


@dataclass(frozen=True)
class TcdeWitness:
    """Toggle-symmetric distribution whose ddeg expectation misses the density.

    The weights are ``ints[i] / den``: nonnegative integer numerators over one
    common denominator.  ``_refute`` builds them as (2Y + z_i) / (2NY), with
    N = |J|, z the integer perturbation and Y = max(-z_i), so validation and
    emission run in integers.
    """

    ints: tuple[int, ...]
    den: int
    expectation: Fraction

    def validate(self, L: IdealLattice) -> bool:
        ints, den = self.ints, self.den
        if len(ints) != L.n or den <= 0 or min(ints) < 0 or sum(ints) != den:
            return False
        if not is_toggle_symmetric(L, ints):
            return False
        total = sum(map(mul, ints, L.ddeg))
        return (
            Fraction(total, den) == self.expectation
            and total * L.n != L.edge_count() * den
        )

    def to_dict(self) -> dict:
        den = self.den
        weights = []
        for w in self.ints:
            g = gcd(w, den)
            weights.append(f"{w // g}/{den // g}")
        return {
            "kind": "tcde_witness",
            "weights": weights,
            "expectation": rat_str(self.expectation),
        }


def _transpose(masks, width: int) -> list[int]:
    """Bit k of the i-th mask as bit i of the k-th int, for k < width.

    The masks, last first, are written as one string of binary numerals of
    s digits each, s the width rounded up to whole bytes: their bytes are
    joined, and the one int those spell is formatted once.  Every s-th digit
    from position s - 1 - k is then bit k of each mask, last first, so one
    ``int(.., 2)`` reads each row.
    """
    size = (width + 7) // 8
    data = b"".join(map(int.to_bytes, reversed(masks), repeat(size), repeat("big")))
    step = 8 * size
    rows = format(int.from_bytes(data, "big"), f"0{step * len(masks)}b")
    return [int(rows[step - 1 - k :: step], 2) for k in range(width)]


def _gram(L: IdealLattice, empty_full: bool):
    """H = [A | ddeg]^T [A | ddeg] for A = [1 | T_p], plus the empty/full
    column when asked: G = A^T A bordered by A^T ddeg and <ddeg, ddeg>.

    Each column of A is a (plus, minus) pair of bitsets over the ideals, and
    two columns' inner product is two popcounts, since the plus and minus
    sets of each are disjoint.  Only |J|, the diagonal, the cover pairs of P
    and the empty/full row are counted; the toggle bijection makes every
    other entry of G 0 (see the module docstring).  The border comes from
    the bit-planes of ddeg.
    """
    nP = L.base.n
    cols = [((1 << L.n) - 1, 0), *zip(_transpose(L.up, nP), _transpose(L.down, nP))]
    if empty_full:
        # [I = empty] - [I = full]; a single ideal counts as full
        cols.append((int(L.n > 1), 1 << (L.n - 1)))
    gram = [[0] * (len(cols) + 1) for _ in range(len(cols) + 1)]
    gram[0][0] = L.n
    pairs = [(p, p) for p in range(1, nP + 1)]
    pairs += [(p + 1, q + 1) for p, q in L.base.covers]
    if empty_full:
        pairs += [(a, nP + 1) for a in range(nP + 2)]
    for a, b in pairs:
        (up, um), (vp, vm) = cols[a], cols[b]
        entry = (up & vp | um & vm).bit_count() - (up & vm | um & vp).bit_count()
        gram[a][b] = gram[b][a] = entry
    planes = list(enumerate(_transpose(L.ddeg, max(L.ddeg).bit_length())))
    for a, (p, m) in enumerate(cols):
        entry = sum([((p & b).bit_count() - (m & b).bit_count()) << j for j, b in planes])
        gram[a][-1] = gram[-1][a] = entry
    gram[-1][-1] = sum(map(mul, L.ddeg, L.ddeg))
    return gram


def _identity_holds(L: IdealLattice, c, kappa, scale=1, empty_full=0) -> bool:
    """Whether c + sum_p kappa_p T_p(I) + empty_full ([I = empty] - [I = full])
    = scale * ddeg(I) on every ideal I, a kappa of other than n entries failing.

    With D the common denominator, v = D (c, kappa, empty_full, -scale) is an
    integer vector, and v^T H v = ||[A | ddeg] v||^2 is 0 exactly when the
    identity holds everywhere.
    """
    if len(kappa) != L.base.n:
        return False
    coeffs = [Fraction(v) for v in (c, *kappa, empty_full, -scale)]
    D = lcm(*[q.denominator for q in coeffs])
    v = [q.numerator * (D // q.denominator) for q in coeffs]
    return sum([u * sum(map(mul, row, v)) for u, row in zip(v, _gram(L, True))]) == 0


def certify_tcde(
    L: IdealLattice, empty_full_constraint: bool = False
) -> Optional[TcdeCertificate]:
    """Solve for (c, kappa) making the pointwise identity hold on every ideal.

    The least-squares solution of the Gram system is the candidate, and the
    identity holds on every ideal exactly when its residual is 0, which
    ``linalg.solve`` reads off the bordered Gram matrix in integers.  A
    solution that fails the normal equations on some row, or a certified c
    other than the edge density #edges / |J| (the identity summed over
    J(P)), means the arithmetic went wrong and raises ``ArithmeticError``.

    With empty_full_constraint the span is enlarged by the indicator
    difference [I = empty] - [I = full], which certifies constancy over the
    smaller class of toggle-symmetric distributions that put equal weight on
    the empty and full ideals (the trapezoid trick); the certificate keeps
    that column's coefficient as ``empty_full``.
    """
    gram = _gram(L, empty_full_constraint)
    d, x, residual = linalg.solve(gram)
    if any(sum(map(mul, row, x)) != d * row[-1] for row in gram[:-1]):
        raise ArithmeticError("exact solve failed on a consistent system")
    if residual:
        return None
    # summed over J(P) the identity reads c |J| = sum ddeg: every T_p sums to
    # 0, and so does the empty/full column unless J(P) is one ideal, where
    # ddeg, and so x, is 0
    if x[0] * L.n != d * L.edge_count():
        raise ArithmeticError(
            f"certified c = {Fraction(x[0], d)} is not the edge density "
            f"{Fraction(L.edge_count(), L.n)}"
        )
    empty_full = x[-1] if empty_full_constraint else 0
    kappa = tuple([Fraction(k, d) for k in x[1 : L.base.n + 1]])
    return TcdeCertificate(Fraction(x[0], d), kappa, Fraction(empty_full, d))


def find_witness(L: IdealLattice) -> Optional[TcdeWitness]:
    """Constructive tCDE refutation: uniform plus a kernel perturbation.

    Finds v with sum v = 0, <T_p, v> = 0 for all p, and <ddeg, v> = 1, then
    returns uniform + (eps/2) * v with eps the largest nonnegativity-feasible
    step.  Returns None when the lattice is tCDE (no such v exists).
    """
    return None if certify_tcde(L) is not None else _refute(L)


def _ideal_columns(L: IdealLattice):
    """The columns [1; T_p; ddeg] of the ideals in canonical order, lazily,
    each as its (row, value) pairs.

    A column is 1 at row 0, +1 at the bits of its ideal's up mask and -1 at
    those of its down mask, disjoint antichains of P, and ddeg at the last
    row; element p sits at row p + 1, the bit length of its bit."""
    last = L.base.n + 1

    def column(u, d, dd):
        col = [(0, 1)]
        while u:
            low = u & -u
            col.append((low.bit_length(), 1))
            u ^= low
        while d:
            low = d & -d
            col.append((low.bit_length(), -1))
            d ^= low
        col.append((last, dd))
        return col

    return map(column, L.up, L.down, L.ddeg)


def _refute(L: IdealLattice) -> TcdeWitness:
    """The witness of find_witness for a lattice known not to be tCDE."""
    nP = L.base.n
    chosen, d, y = linalg._eliminate(_ideal_columns(L), nP + 2)
    # sum_i y_i col_i = d e_last, checked in integers
    total = [0] * (nP + 2)
    for (_, col), x in zip(chosen, y or ()):
        for r, v in col:
            total[r] += v * x
    if y is None or total != [0] * (nP + 1) + [d]:
        raise ArithmeticError("exact elimination failed on a consistent system")
    # v = y / d; with z = sign(d) y and Y = max(-z_i), the classical weights
    # 1/N + (eps/2) v_i, eps = min over v_i < 0 of (1/N) / -v_i, are exactly
    # (2Y + z_i) / (2NY), and an unchosen ideal gets 2Y / (2NY) = 1/N
    z = y if d > 0 else [-x for x in y]
    top = max([-x for x in z])
    ints = [2 * top] * L.n
    for (i, _), x in zip(chosen, z):
        ints[i] += x
    den = 2 * L.n * top
    witness = TcdeWitness(tuple(ints), den, Fraction(sum(map(mul, ints, L.ddeg)), den))
    if not witness.validate(L):
        raise ArithmeticError("computed tCDE witness failed validation")
    return witness


def scan_family(items, predicate: str, budget: int = DEFAULT_IDEAL_BUDGET):
    """Run a CDE/mCDE/tCDE classification over a stream of (name, poset) pairs.

    Yields dicts; ``predicate`` picks which property drives ``holds``.  The
    posets are the *base* posets; analysis happens on J(P).  ``budget``
    bounds the ideals of all the lattices together, so it also bounds how
    many lattices the scan builds.

    ``cde`` and ``mcde`` rows read the maxchain expectation off the
    saturated-chain sweep (``_maxchain_expectation``).  On J(P) every maximal
    chain is a |P|-chain, so that expectation is the last k-chain one, and a
    row that is not CDE is not mCDE either: ``cde`` rows never run the
    k-chain pass, and ``mcde`` rows run it (``cde_report``) only when the row
    is CDE.  ``tcde`` rows run ``certify_tcde``.
    """
    predicate = predicate.lower()
    if predicate not in {"cde", "mcde", "tcde"}:
        raise ValueError(f"unknown predicate {predicate!r}")
    left = budget
    for name, P in items:
        try:
            L = build_lattice(P, budget=left)
        except LatticeBudgetError:
            raise LatticeBudgetError(f"J(P) exceeds the ideal budget of {budget}") from None
        left -= L.n
        density = Fraction(L.edge_count(), L.n)
        entry = {"input": name, "predicate": predicate, "edge_density": rat_str(density)}
        if predicate == "tcde":
            cert = certify_tcde(L)
            entry["holds"] = cert is not None
            if cert is not None:
                entry["c"] = rat_str(cert.c)
        else:
            maxexp = _maxchain_expectation(L, L.ddeg)
            holds = maxexp == density
            if holds and predicate == "mcde":
                holds = cde_report(L).is_mcde
            entry["holds"] = holds
            entry["maxchain_expectation"] = rat_str(maxexp)
        yield entry
