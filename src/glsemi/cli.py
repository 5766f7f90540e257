"""Command-line front end: verify, eggbox, report.

Instance files are flat key = value text (p, n, r, optional u_basis
rows, optional caps).  `verify` runs the whole structural suite with
one pass/fail/skip line per check and a nonzero exit status iff some
check fails; `eggbox` writes a DOT diagram of the D-class grid;
`report` dumps the structural summary as JSON.

Caps resolve in order: command-line flag, then environment
(GLSEMI_ENUM_CAP / GLSEMI_RANK_CAP), then the instance file, then the
package defaults.  A cap below 1 from any source is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    ConfigurationError,
    GlsemiError,
    InfeasibleError,
)
from .gf_linalg import (
    anchors,
    codes,
    complements_among,
    span_mask,
    times_held,
)
from .gl_restriction import (
    DEFAULT_ENUM_CAP,
    DEFAULT_RANK_CAP,
    FIX_U,
    FIX_W,
    G_W,
    N_W,
    RANK_BUDGET,
    Instance,
    Structure,
    conjugates_leave,
    enumerate_semigroup,
    factor_through_grid,
    generating_set,
    green_char_partitions,
    j_class,
    j_class_count_report,
    make_instance,
    minimal_idempotents,
    predicted_order,
    q_ideal,
    raise_factors,
    rank_value,
    regular_witnesses,
    sandwich_factor_grid,
    dclass_witness_grid,
    special_subgroup,
)
from .isomorphism import decide_isomorphic, element_bijection
from .semigroup_core import (
    SemigroupTable,
    closure_indices,
    idempotents,
    label_classes,
    minimal_idempotents_oracle,
    principal_ideal,
    rank_search,
    verify_ideal,
)

ENV_ENUM_CAP = "GLSEMI_ENUM_CAP"
ENV_RANK_CAP = "GLSEMI_RANK_CAP"


@dataclass
class InstanceConfig:
    p: int
    n: int
    r: int
    u_rows: tuple | None = None
    enum_cap: int | None = None
    rank_cap: int | None = None


@dataclass
class CheckResult:
    name: str
    claim: str
    status: str  # pass | fail | skip
    counts: dict
    reason: str | None
    seconds: float

    def to_dict(self) -> dict:
        # Shallow: the counts dict is shared, not deep-copied as asdict would.
        return {**vars(self), "seconds": round(self.seconds, 4)}


@dataclass
class VerifyReport:
    instance: dict
    checks: list[CheckResult] = field(default_factory=list)
    # Work done outside the checks: enumerate_s is the time of the one
    # enumerate_semigroup call (member list, Cayley table, table check),
    # profiles_s the time to read every element's codimension and its
    # image and kernel class ids off the Structure's action array.
    stages: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.checks)

    def to_dict(self) -> dict:
        tally = {s: sum(1 for c in self.checks if c.status == s) for s in ("pass", "fail", "skip")}
        return {
            "instance": self.instance,
            "summary": tally,
            "checks": [c.to_dict() for c in self.checks],
            "stages": self.stages,
        }


def _parse_row(token: str, n: int, p: int) -> tuple:
    if "," in token:
        parts = [part.strip() for part in token.split(",")]
    else:
        parts = list(token)
    try:
        row = tuple(int(x) for x in parts)
    except ValueError:
        raise ConfigurationError(f"cannot parse basis row {token!r}") from None
    if len(row) != n:
        raise ConfigurationError(f"basis row {token!r} has length {len(row)}, expected {n}")
    if any(x < 0 or x >= p for x in row):
        raise ConfigurationError(f"basis row {token!r} has entries outside [0, {p})")
    return row


def parse_config(text: str) -> InstanceConfig:
    """Parse the flat key = value instance format."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = val.strip()
    known = {"p", "n", "r", "u_basis", "cap", "rank_cap"}
    unknown = set(values) - known
    if unknown:
        raise ConfigurationError(f"unknown keys: {', '.join(sorted(unknown))}")
    for req in ("p", "n", "r"):
        if req not in values:
            raise ConfigurationError(f"missing required key {req!r}")
    try:
        p, n, r = (int(values[k]) for k in ("p", "n", "r"))
    except ValueError:
        raise ConfigurationError("p, n, r must be integers") from None
    u_rows = None
    if values.get("u_basis"):
        u_rows = tuple(_parse_row(tok, n, p) for tok in values["u_basis"].split())
    elif "u_basis" in values and r:  # never silently the default U instead
        raise ConfigurationError(f"u_basis is empty, but r = {r} needs {r} basis rows")
    caps = {}
    for key in ("cap", "rank_cap"):
        if key in values:
            try:
                caps[key] = int(values[key])
            except ValueError:
                raise ConfigurationError(f"{key} must be an integer") from None
            if caps[key] < 1:
                raise ConfigurationError(f"{key} must be positive")
    return InstanceConfig(p=p, n=n, r=r, u_rows=u_rows,
                          enum_cap=caps.get("cap"), rank_cap=caps.get("rank_cap"))


def load_config(path: str) -> InstanceConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read instance file {path}: {exc}") from None
    return parse_config(text)


def build_instance(cfg: InstanceConfig) -> Instance:
    return make_instance(cfg.p, cfg.n, cfg.r, cfg.u_rows)


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(f"environment variable {name} must be an integer") from None
    if value < 1:
        raise ConfigurationError(f"environment variable {name} must be positive")
    return value


def resolve_caps(cfg: InstanceConfig, flag_cap: int | None, flag_rank_cap: int | None) -> tuple[int, int]:
    """Flag beats environment beats instance file beats default.

    Flags are validated here, the environment by _env_int and the
    instance file by parse_config: a value below 1 is an error, never a
    reason to fall through to the next source.
    """
    for flag, value in (("--cap", flag_cap), ("--rank-cap", flag_rank_cap)):
        if value is not None and value < 1:
            raise ConfigurationError(f"{flag} must be positive")
    enum_cap = next(v for v in (flag_cap, _env_int(ENV_ENUM_CAP), cfg.enum_cap, DEFAULT_ENUM_CAP) if v is not None)
    rank_cap = next(v for v in (flag_rank_cap, _env_int(ENV_RANK_CAP), cfg.rank_cap, DEFAULT_RANK_CAP) if v is not None)
    return enum_cap, rank_cap


# Checks take the instance's Structure and the (enum_cap, rank_cap) pair,
# except those in _INSTANCE_CHECKS, which take the Instance and run
# without a table.  cmd_verify builds the Structure once, before the
# first check that needs it, and times the build and the per-element
# codims and class ids as stages of their own.


def _check_order_law(s: Structure, caps):
    # Distinct elements (enumerate_semigroup proves their keys strictly
    # increasing), each permuting U's codes (U*b = U), as many as the
    # closed form: the element list is exactly the semigroup.
    expected = predicted_order(s.inst)
    counts = {"order": len(s.table), "expected": expected}
    u = np.flatnonzero(span_mask(s.inst.p, s.inst.n, codes(s.inst.p, s.inst.u.basis)))
    moved = np.flatnonzero((np.sort(s.act[u], axis=0) != u[:, None]).any(axis=0))
    reason = f"element {moved[0]} does not map U onto U" if moved.size else None
    return ("pass" if len(s.table) == expected and reason is None else "fail", counts, reason)


def _check_complement_count(inst: Instance):
    expected = inst.p ** (inst.r * (inst.n - inst.r))
    if expected > 100_000:
        raise CapacityError(f"{expected} complements exceed the enumeration budget")
    comps = inst.complements
    ok = len(set(comps)) == len(comps) == expected and complements_among(inst.u, comps).all()
    counts = {"complements": len(comps), "expected": expected}
    return ("pass" if ok else "fail", counts, None)


def _check_green_agreement(s: Structure, caps):
    table = s.table
    oracle = table.green()
    char = green_char_partitions(s)
    same = all(np.array_equal(getattr(oracle, rel), getattr(char, rel)) for rel in ("l", "r", "h", "d", "j"))
    d_equals_j = np.array_equal(oracle.d, oracle.j)
    counts = {
        "elements": len(table),
        "l_classes": int(oracle.l.max()) + 1,
        "r_classes": int(oracle.r.max()) + 1,
        "h_classes": int(oracle.h.max()) + 1,
        "d_classes": int(oracle.d.max()) + 1,
        "agrees": same,
        "d_equals_j": d_equals_j,
    }
    return ("pass" if same and d_equals_j else "fail", counts, None)


def _check_ideal_structure(s: Structure, caps):
    inst, table, codims = s.inst, s.table, s.codims
    p, n, top = inst.p, inst.n, inst.n - inst.r
    failures = []
    for k in range(1, top + 1):
        if not verify_ideal(table, q_ideal(s, k)):
            failures.append(f"Q({k}) is not an ideal")
    if verify_ideal(table, j_class(s, top)):
        failures.append("unit grade wrongly closed as an ideal")
    # The J-classes of the table's Green oracle are the classes of equal
    # S^1 a S^1, numbered by least element, so one principal ideal per
    # J-class and one compare per (J-class, codim) covers every element.
    # An element of codimension k should generate Q(k+1), every element
    # below codim k+1; for a unit that is all of S.
    j_ids = table.green().j
    ideals = [principal_ideal(table, least) for least in np.unique(j_ids, return_index=True)[1].tolist()]
    for i in np.unique(np.column_stack([j_ids, codims]), axis=0, return_index=True)[1].tolist():
        if not np.array_equal(ideals[j_ids[i]], s.below[codims[i] + 1]):
            failures.append(f"principal ideal mismatch at element {i}")
    # A minimal-ideal element, whose column of s.act holds p^r codes, must
    # have image U (every code in U) and a kernel meeting U only in 0 with
    # p^(n-r) codes: mask tests on that column.
    minimal = q_ideal(s, 1)
    cols = s.act[:, minimal]  # cols[v, j]: code of v times minimal[j]
    in_u = span_mask(p, n, codes(p, inst.u.basis))
    zero = cols == 0
    split = in_u[cols].all(axis=0) & ((zero & in_u[:, None]).sum(axis=0) == 1) & (zero.sum(axis=0) == p**top)
    for i in minimal[~split].tolist():
        failures.append(f"minimal-ideal element {i} fails image/kernel split")
    counts = {"ideals": top, "principal_reps": len(table), "minimal_ideal": len(minimal)}
    return ("pass" if not failures else "fail", counts, "; ".join(failures) or None)


def _check_minimal_idempotents(s: Structure, caps):
    inst = s.inst
    char = minimal_idempotents(s)
    oracle = minimal_idempotents_oracle(s.table)
    expected = inst.p ** (inst.r * (inst.n - inst.r))
    ok = np.array_equal(char, oracle) and len(char) == expected
    counts = {"characterized": len(char), "oracle": len(oracle), "expected": expected}
    return ("pass" if ok else "fail", counts, None)


def _check_regularity(s: Structure, caps):
    regular_witnesses(s, range(len(s.table)))  # verifies a * b * a == a and b * a * b == b internally
    counts = {"members": len(s.table), "verified": len(s.table)}
    return ("pass", counts, None)


def _check_factorizations(s: Structure, caps):
    # Matrices act on rows.  For x of kernel class c and codim k, y of class
    # d with k <= codim y = m: K_c = kernel[c] = [basis of ker c; transversal;
    # U], A = K_c*x (applied[x]), D = D(y, k) = P*dom(y) for P the
    # permutation matrix of sigma(m, k) (row j of D is row sigma(j) of
    # dom(y)), Dinv = element_inv[y]*P^T, lam = kernel_inv[c]*S with S = [0;
    # K_d's row sigma(j) at each row j from n-r-k on], and mu = Dinv*A.
    # Facts: (i) K_c's head rows lie in ker c and its last r rows are U's;
    # (ii) each sigma(m, k) is a permutation that fixes U's rows and sends
    # rows n-r-k.. into dom's rows n-r-m.., which are K_d*y's; (iii)
    # dom(y)*element_inv[y] = I: every dom(y) is invertible, so D*Dinv =
    # P*P^T = I by (ii).  Lemma: S*y and D agree from row n-r-k on, by (ii),
    # so S*y*Dinv = Z, the identity with its first n-r-k rows zeroed, and
    # Z*A = A by (i), so lam*y*mu = kernel_inv[c]*K_c*x for every y.  One
    # recomposition x0 = lam*y0*mu puts the rows of kernel_inv[c]*K_c - I
    # in ker c, so every x of c recomposes.  mu is a member: D's last r rows
    # are U*y = U, by (i) and (ii), and D*Dinv = I sends them onto the last
    # r unit rows, so U*mu spans A's last r rows: U*x = U.
    # Witness: gamma = K_d^-1*(a's images) has a's image and b's kernel, d =
    # ker b, so one witness serves every pair drawn from those two classes.
    # Sandwich: for t of class c and a of class d, lam = kernel_inv[c]*K_d,
    # mu = element_inv[a]*dom(t) and K_d*a = Z*dom(a) by (i), so lam*a*mu =
    # kernel_inv[c]*K_c*t by (iii): one t per c proves every t of c, as
    # above.  lam is one per pair of classes, mu a unit by (iii), and U*mu =
    # U as above, by (iii).  So every grid takes the least element of each
    # class: kernel classes on both sides of factor-through and sandwiches,
    # image by kernel classes for witnesses.
    p, n, top, bt = s.inst.p, s.inst.n, s.inst.n - s.inst.r, s.batch
    u, j = codes(p, s.inst.u.basis), np.arange(n)
    in_ker = s.act[bt.kernel, s.kernel_classes[1][:, None]] == 0
    ok = np.where(j < (top - bt.ker_codims)[:, None], in_ker, (j < top) | (bt.kernel == np.pad(u, (top, 0))))
    if not ok.all():
        return ("fail", {}, f"kernel class {(~ok).any(axis=1).argmax()} is no [basis of its kernel; transversal; U]")
    m, k = np.tril_indices(top + 1)
    sigma = bt.sigma_at(m, k)
    kept = (sigma >= (top - m)[:, None]) | (j < (top - k)[:, None])  # rows n-r-k.. off dom's head
    ok = (np.sort(sigma, axis=1) == j).all(axis=1) & (sigma[:, top:] == j[top:]).all(axis=1) & kept.all(axis=1)
    if not ok.all():
        m, k = m[~ok][0], k[~ok][0]
        return ("fail", {}, f"sigma({m}, {k}) is no permutation that fixes U's rows and keeps rows {top - k}.. off dom's {top - m} head rows")
    if (bad := (times_held(p, bt.domain, bt.element_inv) != p ** (n - 1 - j)).any(axis=1)).any():
        return ("fail", {}, f"dom({bad.argmax()}) times its stored inverse is not the identity")
    kers = [g[np.unique(bt.ker_ids[g], return_index=True)[1]] for g in s.grades]  # least of each kernel class
    imgs = [g[np.unique(bt.img_ids[g], return_index=True)[1]] for g in s.grades]  # least of each image class
    factored = witnesses = infeasible = 0
    for k, left in enumerate(s.grades):
        factor_through_grid(s, kers[k], np.concatenate(kers[k:]))
        factored += left.size * (len(s.table) - s.below[k].size)
        if k:
            try:
                factor_through_grid(s, kers[k], np.concatenate(kers[:k]))
            except InfeasibleError:
                infeasible += left.size * s.below[k].size
            else:
                return ("fail", {}, "factor_through accepted an impossible pair")
        dclass_witness_grid(s, imgs[k], kers[k])
        witnesses += left.size**2
    raised = len(raise_factors(s, s.below[top - 1])[0])
    sandwich_factor_grid(s, kers[top - 1], kers[top - 1])
    counts = {"factored": factored, "infeasible_rejected": infeasible, "d_witnesses": witnesses}
    return ("pass", {**counts, "raised": raised, "sandwiched": s.grades[top - 1].size ** 2}, None)


def _check_generation(s: Structure, caps):
    table = s.table
    top = s.inst.n - s.inst.r
    gens = generating_set(s)
    # A's units and gens' one non-unit (A: the table check's generating set)
    # lie inside gens, so a closure of S from them proves the claim.
    few = s.codims != top
    few[table._checked_generators()] = True
    full = closure_indices(table, gens[few[gens]])
    failures = []
    if len(full) != len(table):
        failures.append("units plus one lower element failed to generate")
    # Grade k generates Q(k+1): that ideal holds grade k, so all its products,
    # and raise_factors writes each element below grade n-r-1 as lam * mu,
    # both one grade up, so by induction each below k is a product of grade k.
    for k in range(1, top):
        if not verify_ideal(table, q_ideal(s, k + 1)):
            failures.append(f"grade {k} did not generate the ideal below {k + 1}: Q({k + 1}) is not an ideal")
    if top > 1 and not failures:
        raise_factors(s, s.below[top - 1])  # refuses a factor that fails to recompose or to land one grade up
    counts = {"generators": len(gens), "closure": len(full), "grades_checked": top - 1}
    return ("pass" if not failures else "fail", counts, "; ".join(failures) or None)


def _check_rank_identity(s: Structure, caps):
    _, rank_cap = caps
    table = s.table
    via_units = rank_value(s, rank_cap=rank_cap)
    if via_units is None:
        return ("skip", {}, "unit-group rank search exceeded its cap or budget")
    if len(table) > 20:
        counts = {"rank_via_units": via_units}
        return ("skip", counts, "full-semigroup subset sweep infeasible at this order")
    found = rank_search(table, range(len(table)), rank_cap, budget=RANK_BUDGET)
    if found is None:
        return ("skip", {"rank_via_units": via_units}, "no generating set within the rank cap")
    counts = {"rank_via_units": via_units, "rank_exhaustive": found[0]}
    return ("pass" if found[0] == via_units else "fail", counts, None)


def _check_unit_decomposition(s: Structure, caps):
    if s.inst.r < 1:
        return ("skip", {}, "subgroup structure needs r >= 1")
    top = s.inst.n - s.inst.r
    h = special_subgroup(s, FIX_U)
    failures = []
    # The table check's generators that are units generate the units (a
    # unit's left-tree ancestors are units), so every unit has an inverse
    # once each of them does (a word's inverse is the reversed word of
    # inverses), and Fix(U) is normal iff a*h*a^-1 stays in it for each.
    gens = [a for a in s.table._checked_generators() if s.codims[a] == top]
    if (s.inverse(gens) < 0).any():
        failures.append("a unit has no inverse in the table")
    elif conjugates_leave(s, h, gens):
        failures.append("conjugate left the U-fixing subgroup")
    # Each split is unique exactly when its product grid is a bijection,
    # which the layer's grids check for every W, onto every unit and every
    # U-fixing unit.
    counts = {
        "units": len(s.grades[top]),
        "fix_u": len(h),
        "complements_checked": len(s.inst.complements),
        "decompositions": sum(cells.size for cells in s.subgroups.grids.values()),
    }
    return ("pass" if not failures else "fail", counts, "; ".join(failures) or None)


def _failing_complement(s: Structure, ok: np.ndarray, kinds, reason):
    # The fail result naming the first (W, kind) where ok[i, k] is false, in
    # the order W, then kind; None when every one holds.
    if ok.all():
        return None
    i, k = np.argwhere(~ok)[0]
    return ("fail", {"complement": [list(row) for row in s.inst.complements[i].basis]}, reason(kinds[k]))


def _check_subgroup_isomorphisms(s: Structure, caps):
    if s.inst.r < 1:
        return ("skip", {}, "subgroup structure needs r >= 1")
    kinds = (FIX_W, G_W, N_W)
    ok = np.column_stack([s.subgroups.isomorphic[kind] for kind in kinds])
    failed = _failing_complement(s, ok, kinds, lambda kind: f"{kind} comparison failed")
    return failed or ("pass", {"isomorphisms_checked": ok.size}, None)


def _check_nonnormality(s: Structure, caps):
    if s.inst.r < 1:
        return ("skip", {}, "subgroup structure needs r >= 1")
    # Fix(W) is non-normal in the units, and G(W) in Fix(U), exactly when it
    # is nontrivial.  The units are Fix(W)*Fix(U) and Fix(U) is G(W)*N(W), so
    # a translation in N(W) that moves H, as the paper's witnesses do, is a
    # witness in the bigger group too.  Every W is conjugated at once.
    kinds, members = (FIX_W, G_W), s.subgroups.members
    moved = np.column_stack([conjugates_leave(s, members[kind], members[N_W]) for kind in kinds])
    orders = {kind: members[kind].shape[1] for kind in kinds}

    def reason(kind):
        verdict = "keeps" if orders[kind] > 1 else "moves"
        return f"N(W) conjugation {verdict} {kind} of order {orders[kind]}"

    failed = _failing_complement(s, moved == [orders[kind] > 1 for kind in kinds], kinds, reason)
    fix_w_moved, g_w_moved = moved.sum(axis=0).tolist()
    return failed or ("pass", {"complements": len(s.inst.complements), "fix_w_moved": fix_w_moved, "g_w_moved": g_w_moved}, None)


def _check_isomorphism_theorem(s: Structure, caps):
    enum_cap, _ = caps
    inst = s.inst
    failures = []
    if inst.r >= 1:
        # U with its first row moved by U's first anchor: another
        # r-dimensional subspace.
        rows = np.array(inst.u.basis)
        rows[0] = (rows[0] + anchors(inst.u)[0]) % inst.p
        partner = enumerate_semigroup(make_instance(inst.p, inst.n, inst.r, rows.tolist()), enum_cap)
    else:
        partner = s
    witness = decide_isomorphic(inst, partner.inst)
    verified_pairs = 0
    if witness is None:
        failures.append("matched parameters did not produce a witness")
    else:
        verified_pairs = len(element_bijection(witness, s, partner)) ** 2
    negative = None
    for r2 in (inst.r + 1, inst.r - 1):
        if 0 <= r2 < inst.n:
            negative = make_instance(inst.p, inst.n, r2)
            break
    if negative is not None and decide_isomorphic(inst, negative) is not None:
        failures.append("differing subspace dimensions wrongly reported isomorphic")
    counts = {
        "psi_pairs_verified": verified_pairs,
        "negative_case": negative is not None,
    }
    return ("pass" if not failures else "fail", counts, "; ".join(failures) or None)


def _check_j_class_count(s: Structure, caps):
    report = j_class_count_report(s)
    ok = report["observed"] == len(s.grades)
    return ("pass" if ok else "fail", dict(report), None)


_CHECKS = (
    ("order_law", "order equals |GL_r(p)| * p^(n(n-r))", _check_order_law),
    ("complement_count", "U has exactly p^(r(n-r)) complements", _check_complement_count),
    ("green_agreement", "image/kernel/codim classes match the ideal-based Green classes, and D = J", _check_green_agreement),
    ("ideal_structure", "the Q(k) chain gives all proper ideals; principal ideals follow the grading", _check_ideal_structure),
    ("minimal_idempotents", "idempotents with image U are exactly the order-minimal idempotents", _check_minimal_idempotents),
    ("regularity", "every element has a verified inner inverse", _check_regularity),
    ("factorizations", "all constructive factorizations recompose exactly in the stated grades", _check_factorizations),
    ("generation", "units plus one corank-1 element generate; each grade generates the ideal below it", _check_generation),
    ("rank_identity", "minimal generating-set size equals unit-group rank plus one", _check_rank_identity),
    ("unit_decomposition", "unit group = Fix(W) x Fix(U) with unique factors; Fix(U) closed under conjugation", _check_unit_decomposition),
    ("subgroup_isomorphisms", "Fix(W) matches GL(U), G(W) matches GL(W), N(W) matches U^(n-r)", _check_subgroup_isomorphisms),
    ("nonnormality", "for every W, N(W) conjugates Fix(W) and G(W) out of themselves exactly when they are nontrivial", _check_nonnormality),
    ("isomorphism_theorem", "same (n, r) over one field gives a verified witness; different r does not", _check_isomorphism_theorem),
    ("j_class_count", "one J-class per codimension 0..n-r; the gap to the quotient dimension n-r is flagged", _check_j_class_count),
)
_INSTANCE_CHECKS = frozenset({_check_complement_count})


def _require_positive_caps(enum_cap: int, rank_cap: int) -> None:
    for name, value in (("enumeration cap", enum_cap), ("rank cap", rank_cap)):
        if value < 1:
            raise ConfigurationError(f"{name} must be positive, got {value}")


def _header(inst: Instance) -> dict:
    return {"p": inst.p, "n": inst.n, "r": inst.r, "u_basis": [list(row) for row in inst.u.basis]}


def cmd_verify(cfg: InstanceConfig, enum_cap: int, rank_cap: int) -> VerifyReport:
    _require_positive_caps(enum_cap, rank_cap)
    inst = build_instance(cfg)
    report = VerifyReport(instance={**_header(inst), "enum_cap": enum_cap, "rank_cap": rank_cap})
    s = build_error = None
    start = time.perf_counter()
    try:
        s = enumerate_semigroup(inst, enum_cap)
    except GlsemiError as exc:
        build_error = exc  # each table check reports it
    report.stages["enumerate_s"] = round(time.perf_counter() - start, 4)
    if s is not None:
        start = time.perf_counter()
        try:
            s.codims, s.image_classes, s.kernel_classes
        except GlsemiError as exc:
            build_error = exc
        report.stages["profiles_s"] = round(time.perf_counter() - start, 4)
    for name, claim, fn in _CHECKS:
        start = time.perf_counter()
        try:
            if fn in _INSTANCE_CHECKS:
                status, counts, reason = fn(inst)
            elif build_error is not None:
                raise build_error
            else:
                status, counts, reason = fn(s, (enum_cap, rank_cap))
        except CapacityError as exc:
            status, counts, reason = "skip", {}, str(exc)
        except GlsemiError as exc:
            status, counts, reason = "fail", {}, f"{type(exc).__name__}: {exc}"
        report.checks.append(CheckResult(name, claim, status, counts, reason, time.perf_counter() - start))
    return report


def eggbox_dot(table: SemigroupTable, codims, minimal_idxs=()) -> str:
    """DOT text for the egg-box diagram: one cluster per D-class ordered
    by codimension, H-classes as grid cells, idempotents starred."""
    green = table.green()
    marks = np.zeros((2, len(table)), dtype=bool)  # idempotents, then minimal_idxs
    marks[0, idempotents(table)] = True
    marks[1, np.asarray(minimal_idxs, dtype=np.intp)] = True
    d_codim = np.zeros(green.d.max() + 1, dtype=np.intp)
    np.maximum.at(d_codim, green.d, codims)
    lines = ["digraph eggbox {", "  compound=true;", "  rankdir=TB;", '  node [shape=box fontname="Courier"];']
    anchors = []
    # D labels follow least elements, so this is by codim, then least element.
    for di, d in enumerate(np.lexsort((np.arange(len(d_codim)), -d_codim)).tolist()):
        members = np.flatnonzero(green.d == d)
        # R rows and L columns in order of their least member in the cluster.
        row, col = label_classes(green.r[members]), label_classes(green.l[members])
        width = col.max() + 1
        cells = row * width + col
        count = (row.max() + 1) * width
        sizes = np.bincount(cells, minlength=count).reshape(-1, width)
        # One star for an idempotent in the cell, one for a minimal_idxs member.
        stars = sum(np.bincount(cells, marks[k, members], count) > 0 for k in (0, 1)).reshape(sizes.shape)
        lines.append(f"  subgraph cluster_{di} {{")
        lines.append(f'    label="codim {d_codim[d]}: {len(members)} elements";')
        anchor = None
        for ri, cols in enumerate(sizes):
            row_nodes = []
            for li in np.flatnonzero(cols).tolist():
                name = f"h{di}_{ri}_{li}"
                lines.append(f'    {name} [label="{cols[li]}{"*" * stars[ri, li]}"];')
                row_nodes.append(name)
                anchor = anchor or name
            if len(row_nodes) > 1:
                lines.append("    { rank=same; " + "; ".join(row_nodes) + "; }")
        lines.append("  }")
        anchors.append((di, anchor))
    for (d1, a1), (d2, a2) in zip(anchors, anchors[1:]):
        lines.append(f"  {a1} -> {a2} [ltail=cluster_{d1}, lhead=cluster_{d2}, style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_eggbox(cfg: InstanceConfig, enum_cap: int) -> str:
    s = enumerate_semigroup(build_instance(cfg), enum_cap)
    return eggbox_dot(s.table, s.codims, minimal_idempotents_oracle(s.table))


def cmd_report(cfg: InstanceConfig, enum_cap: int, rank_cap: int) -> dict:
    _require_positive_caps(enum_cap, rank_cap)
    inst = build_instance(cfg)
    fields = ("order", "j_classes", "ideals", "minimal_idempotents", "unit_group", "rank", "j_class_count")
    payload: dict = {"instance": _header(inst), **dict.fromkeys(fields), "skipped": []}
    order = predicted_order(inst)
    if order > enum_cap:
        payload["skipped"].append(f"enumeration (predicted order {order} > cap {enum_cap})")
        return payload
    s = enumerate_semigroup(inst, enum_cap)
    top = inst.n - inst.r
    payload["order"] = len(s.table)
    payload["j_classes"] = [{"codim": k, "size": len(j_class(s, k))} for k in range(top + 1)]
    payload["ideals"] = [{"k": k, "size": len(q_ideal(s, k))} for k in range(1, top + 1)]
    payload["minimal_idempotents"] = {
        "count": len(minimal_idempotents(s)),
        "expected": inst.p ** (inst.r * (inst.n - inst.r)),
    }
    if inst.r >= 1:
        w = inst.complements[0]
        payload["unit_group"] = {
            "order": len(j_class(s, top)),
            "complement": [list(row) for row in w.basis],
            "fix_w": len(special_subgroup(s, FIX_W, w)),
            "fix_u": len(special_subgroup(s, FIX_U)),
            "g_w": len(special_subgroup(s, G_W, w)),
            "n_w": len(special_subgroup(s, N_W, w)),
        }
    else:
        payload["unit_group"] = {"order": len(j_class(s, top))}
        payload["skipped"].append("subgroup structure (r = 0)")
    value = rank_value(s, rank_cap=rank_cap)
    if value is None:
        payload["skipped"].append("rank (search cap or budget exceeded)")
    payload["rank"] = value
    payload["j_class_count"] = j_class_count_report(s)
    return payload


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="glsemi",
        description="Structural verification for semigroups of linear maps acting invertibly on a fixed subspace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full check suite for one instance")
    p_verify.add_argument("--instance", required=True, help="instance config file")
    p_verify.add_argument("--cap", type=int, default=None, help="enumeration cap override")
    p_verify.add_argument("--rank-cap", type=int, default=None, help="rank search cap override")
    p_verify.add_argument("--out", default=None, help="also write the report as JSON")

    p_eggbox = sub.add_parser("eggbox", help="emit the egg-box diagram as DOT")
    p_eggbox.add_argument("--instance", required=True)
    p_eggbox.add_argument("--out", required=True, help="output .dot path")
    p_eggbox.add_argument("--cap", type=int, default=None)

    p_report = sub.add_parser("report", help="emit the structural summary as JSON")
    p_report.add_argument("--instance", required=True)
    p_report.add_argument("--out", required=True, help="output .json path")
    p_report.add_argument("--cap", type=int, default=None)
    p_report.add_argument("--rank-cap", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.instance)
        enum_cap, rank_cap = resolve_caps(cfg, args.cap, getattr(args, "rank_cap", None))
        if args.command == "verify":
            report = cmd_verify(cfg, enum_cap, rank_cap)
            header = report.instance
            print(f"instance p={header['p']} n={header['n']} r={header['r']} (cap={enum_cap})")
            for check in report.checks:
                line = f"{check.status.upper():4s} {check.name}"
                if check.counts:
                    pretty = ", ".join(f"{k}={v}" for k, v in check.counts.items())
                    line += f" ({pretty})"
                if check.reason:
                    line += f" -- {check.reason}"
                line += f" [{check.seconds:.2f}s]"
                print(line)
            payload = report.to_dict()
            tally = payload["summary"]
            print(f"verify: {tally['pass']} passed, {tally['fail']} failed, {tally['skip']} skipped")
            if args.out:
                _write_text(args.out, json.dumps(payload, indent=2) + "\n")
            return 1 if report.failed else 0
        if args.command == "eggbox":
            _write_text(args.out, cmd_eggbox(cfg, enum_cap))
            print(f"wrote {args.out}")
            return 0
        payload = cmd_report(cfg, enum_cap, rank_cap)
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
        return 0
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GlsemiError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
