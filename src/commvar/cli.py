"""Command-line front end: constructions, verification suites, and censuses.

All results are emitted as a single JSON document on stdout; human-readable
summaries go to stderr.  Runs are deterministic for a given configuration:
all randomness flows from --seed.

The command line is one table (_TOP and _COMMANDS), read by _parse_args
with argparse's grammar but without building a parser: global options come
before the command, the command's positional and options follow in any
order, an option takes "--opt value" or "--opt=value" and any prefix that
only it starts with, and the last repeat wins.  -h/--help prints help made
from the same table.

Exit status: 0 all checks pass, 1 a mathematical check failed,
2 configuration or feasibility error, or a usage error.
"""

from __future__ import annotations

import json
import random
import re
import sys
import types
from collections import Counter
from decimal import Decimal

from . import census, gf, matgf, polyring, typea_group, weyl
from .errors import LimitExceeded, MathCheckFailed


def _prime_power(q: int) -> tuple[int, int]:
    """q = p^k with p prime; rejects other inputs."""
    if q < 2:
        raise ValueError("field size must be >= 2")
    primes = gf._prime_divisors(q)
    if len(primes) != 1:
        raise ValueError("%d is not a prime power" % q)
    p = primes[0]
    k = 1
    while p**k < q:
        k += 1
    return p, k


def _field_from_q(q: int) -> gf.FieldSpec:
    p, k = _prime_power(q)
    return gf.field(p, k)


def _limits(args) -> census.CensusLimits:
    return census.CensusLimits(max_classes=args.max_classes, max_brute=args.max_brute)


def _emit(doc: dict, args) -> None:
    _emit_text([json.dumps(doc, indent=2) + "\n"], args)


def _emit_text(pieces, args) -> None:
    """Write the document's pieces in order to stdout and to --output."""
    for piece in pieces:
        sys.stdout.write(piece)
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(pieces)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


# -- construct -----------------------------------------------------------------

def _cmd_construct(args) -> int:
    spec = gf.field(args.p, args.k) if args.target != "group" else _field_from_q(args.q)
    doc = {"command": "construct", "target": args.target}
    ok = True
    if args.target == "weyl":
        pair = weyl.weyl_pair(spec, spec.parse(args.alpha), spec.parse(args.beta))
        dim = pair.algebra_dimension()
        a_scalar, b_scalar = pair.central_scalars()
        doc.update(
            {
                "field": _field_doc(spec),
                "p": spec.p,
                "alpha": str(pair.alpha),
                "beta": str(pair.beta),
                "A": pair.a.to_text(),
                "B": pair.b.to_text(),
                "commutator_is_identity": True,  # enforced at construction
                "A_pow_p_scalar": str(a_scalar),
                "B_pow_p_scalar": str(b_scalar),
                "algebra_dimension": dim,
                "algebra_dimension_expected": spec.p**2,
            }
        )
        ok = dim == spec.p**2
    elif args.target == "blockpair":
        scalars = _parse_scalars(spec, args.scalars, args.r)
        pair = weyl.build_block_pair(spec, args.r, scalars)
        inf = matgf.invariant_factors(pair.x)
        regular = len(inf.factors) == 1  # matgf.is_regular, off the same SNF
        doc.update(
            {
                "field": _field_doc(spec),
                "p": spec.p,
                "r": args.r,
                "n": spec.p * args.r,
                "scalars": [str(s) for s in pair.scalars],
                "X": pair.x.to_text(),
                "Y": pair.y.to_text(),
                "commutator_is_identity": True,
                "regular": regular,
                "invariant_factors": [f.pretty() for f in inf],
            }
        )
        if args.r >= 2:
            doc["xp_nonzero"] = not (pair.x**spec.p).is_zero
        if args.r == 2 and all(not s for s in pair.scalars):
            rec = weyl.kernel_action_check(pair)
            doc["kernel_action"] = {
                "multiplier": str(rec.multiplier),
                "multiplier_ok": rec.multiplier_ok,
                "xp_matches_block_form": rec.xp_matches_l,
                "xp_nonzero": rec.xp_nonzero,
            }
            ok = ok and rec.ok
        ok = ok and regular
    elif args.target == "splitpair":
        a_scalars = _parse_scalars(spec, args.a, args.r)
        b_scalars = _parse_scalars(spec, args.b, args.r)
        a, b = weyl.generic_split_pair(spec, a_scalars, b_scalars)
        jq = matgf.centralizer_dimension(a, b)
        pairs = list(zip(a_scalars, b_scalars))
        generic = len(set((x.idx, y.idx) for x, y in pairs)) == len(pairs)
        doc.update(
            {
                "field": _field_doc(spec),
                "p": spec.p,
                "r": args.r,
                "A": a.to_text(),
                "B": b.to_text(),
                "commutator_is_identity": True,
                "joint_centralizer_dimension": jq,
                "scalar_pairs_distinct": generic,
            }
        )
        if generic:
            ok = jq == args.r
    else:  # group
        inst = typea_group.zeta_instance(spec, args.n, args.d)
        m = args.n // args.d
        block = (
            matgf.Mat.from_text(spec, args.block)
            if args.block
            else matgf.Mat.identity(spec, m)
        )
        rec = typea_group.verify_central_commutator(inst, block)
        doc.update(
            {
                "field": _field_doc(spec),
                "n": args.n,
                "d": args.d,
                "zeta": str(inst.zeta),
                "block": block.to_text(),
                "D": rec.d_matrix.to_text(),
                "rho": rec.rho.to_text(),
                "[D,rho]": "zeta*I" if rec.commutator == rec.expected else "mismatch",
                "rho_order_ok": rec.rho_order_ok,
            }
        )
        ok = rec.ok
    doc["ok"] = ok
    _emit(doc, args)
    _say("construct %s: %s" % (args.target, "ok" if ok else "FAILED"))
    return 0 if ok else 1


def _field_doc(spec: gf.FieldSpec) -> dict:
    return {
        "p": spec.p,
        "k": spec.k,
        "q": spec.q,
        "modulus": ",".join(str(c) for c in spec.modulus),
    }


def _parse_scalars(spec, text, r):
    if not text:
        return [spec.zero] * r
    toks = polyring.split_tokens(text)
    if len(toks) != r:
        raise ValueError("expected %d scalars, got %d" % (r, len(toks)))
    return [spec.parse(tok) for tok in toks]


# -- verify ----------------------------------------------------------------------

def _check(name, status, **details):
    out = {"name": name, "status": status}
    out.update(details)
    return out


def _suite_weyl(args, limits) -> list[dict]:
    spec = gf.field(args.p, args.k)
    rng = random.Random(args.seed)
    checks = []
    # algebra dimension p^2 and scalar action of the p-th powers
    fails = []
    for _ in range(3):
        alpha = gf.Fe(spec, rng.randrange(spec.q))
        beta = gf.Fe(spec, rng.randrange(spec.q))
        pair = weyl.weyl_pair(spec, alpha, beta)
        if pair.algebra_dimension() != spec.p**2:
            fails.append((str(alpha), str(beta)))
    checks.append(
        _check(
            "algebra_dimension_p2",
            "pass" if not fails else "fail",
            p=spec.p,
            expected=spec.p**2,
            failures=fails,
        )
    )
    # solution family at (p, r)
    n = spec.p * args.r
    scalars = [gf.Fe(spec, rng.randrange(spec.q)) for _ in range(args.r)]
    pair = weyl.build_block_pair(spec, args.r, scalars)
    try:
        family = weyl.solution_family(pair.x, pair.y)
        fam_ok = family.dim == n
        recon = 0
        for y2 in family.sample(5, seed=args.seed):
            f = family.decompose(y2)
            if f is not None and family.member(f) == y2:
                recon += 1
        checks.append(
            _check(
                "solution_family",
                "pass" if fam_ok and recon == 5 else "fail",
                dimension=family.dim,
                expected_dimension=n,
                reconstructed=recon,
            )
        )
    except (ValueError, AssertionError) as exc:
        checks.append(_check("solution_family", "fail", error=str(exc)))
    # block size divisibility for sampled solutions: the Jordan block sizes
    # of an eigenvalue are the partition of its irreducible in primary_data,
    # so no splitting field is built
    bad = 0
    for a, b in weyl.sample_solution_pairs(spec, args.r, 25, seed=args.seed):
        for m in (a, b):
            if any(s % spec.p for _, parts in matgf.primary_data(m) for s in parts):
                bad += 1
    checks.append(
        _check(
            "block_divisibility",
            "pass" if bad == 0 else "fail",
            samples=25,
            violations=bad,
        )
    )
    return checks


def _suite_group(args, limits) -> list[dict]:
    spec = _field_from_q(args.q)
    if args.n < 1 or args.d < 1:
        # refused, not skipped: only d not dividing n and a missing zeta skip
        raise ValueError("n and d must be positive")
    rng = random.Random(args.seed)
    checks = []
    try:
        inst = typea_group.zeta_instance(spec, args.n, args.d)
    except ValueError as exc:
        return [
            _check("central_commutator", "skipped", reason=str(exc)),
            _check("solution_coset_law", "skipped", reason=str(exc)),
        ]
    m = args.n // args.d
    bad = 0
    for _ in range(5):
        a = matgf.random_matrix(spec, m, rng, invertible=True)
        if not typea_group.verify_central_commutator(inst, a).ok:
            bad += 1
    checks.append(
        _check(
            "central_commutator",
            "pass" if bad == 0 else "fail",
            zeta=str(inst.zeta),
            seeds=5,
            failures=bad,
        )
    )
    # coset law over every invertible x when small, else 10 seeded samples
    # and 5 seeded conjugates g^-1 D g of block matrices D = build_d_matrix,
    # which lie in W and so always carry a witness; each coset's size meets
    # the brute solution walk wherever that fits
    size = census.gl_order(args.n, spec.q)
    brute = spec.q ** (args.n**2) <= limits.max_brute
    exhaustive = size * size <= 200_000 and brute
    if exhaustive:
        xs = filter(matgf.Mat.is_invertible, census._all_matrices(spec, args.n))
    else:
        xs = [matgf.random_matrix(spec, args.n, rng, invertible=True) for _ in range(10)]
        for _ in range(5):
            block = matgf.random_matrix(spec, m, rng, invertible=True)
            g = matgf.random_matrix(spec, args.n, rng, invertible=True)
            xs.append(g.inverse() @ typea_group.build_d_matrix(inst, block) @ g)
    bad = witnesses = 0
    for x in xs:
        coset = typea_group.solution_set_for_x(x, inst.zeta)
        witnesses += coset is not None
        if brute and census._group_solutions(x, inst.zeta) != (coset.count if coset else 0):
            bad += 1
    if exhaustive:
        fields = {"mode": "exhaustive", "group_order": size}
    else:
        fields = {"mode": "sampled", "witnesses": witnesses}
    checks.append(
        _check("solution_coset_law", "pass" if bad == 0 else "fail", **fields, failures=bad)
    )
    return checks


_LIE_TRACE_PAIRS = 1 << 20  # the lie-trace suite runs the brute Lie count up to this many pairs


def _suite_lie_trace(args, limits) -> list[dict]:
    spec = gf.field(args.p, args.k)
    if args.n < 1:
        raise ValueError("n must be positive")
    if args.n % spec.p == 0:
        return [
            _check(
                "trace_obstruction",
                "skipped",
                reason="p divides n; the obstruction does not apply",
            )
        ]
    try:
        count = census.count_lie_pairs(args.n, spec, 1, "class", limits)
    except LimitExceeded as exc:
        return [_check("trace_obstruction", "skipped", reason=str(exc))]
    details = {"n": args.n, "p": spec.p, "q": spec.q, "count": str(count)}
    if spec.q ** (2 * args.n**2) <= min(_LIE_TRACE_PAIRS, limits.max_brute):
        brute = census.count_lie_pairs(args.n, spec, 1, "brute", limits)
        details["brute_count"] = str(brute)
        ok = count == 0 and brute == 0
    else:
        ok = count == 0
    return [_check("trace_obstruction", "pass" if ok else "fail", **details)]


def _square_sum(keys) -> int:
    """The sum of the squared class sizes of a list of class keys."""
    return sum(c * c for c in Counter(keys).values())


def _suite_canon(args, limits) -> list[dict]:
    rng = random.Random(args.seed)
    checks = []
    # invariant factors classify similarity: exhaustive 2x2 over F_2 and F_3.
    # The ordered pairs on which "equal factors" and "same orbit" disagree
    # number sum|F|^2 + sum|O|^2 - 2 sum|F n O|^2 over the classes F of equal
    # factors, the orbits O and the (factors, orbit) classes F n O.
    bad = 0
    for q in (2, 3):
        spec = gf.field(q)
        mats = list(census._all_matrices(spec, 2))
        factors = {m: matgf.invariant_factors(m) for m in mats}
        gl = [(g, g.inverse()) for g in mats if g.is_invertible()]
        orbit = {}  # each matrix to its conjugation orbit, built once per orbit
        for a in mats:
            if a not in orbit:
                members = frozenset(g @ a @ g_inv for g, g_inv in gl)
                orbit.update(dict.fromkeys(members, members))
        keys = [(factors[a], orbit[a]) for a in mats]
        bad += (_square_sum(f for f, _ in keys) + _square_sum(o for _, o in keys)
                - 2 * _square_sum(keys))
    checks.append(
        _check("invariant_factor_similarity", "pass" if bad == 0 else "fail",
               fields=[2, 3], size=2, failures=bad)
    )
    # jordan partitions match the rank sequences of (A - xI)^j
    spec = _field_from_q(args.q)
    bad = 0
    for _ in range(10):
        a = matgf.random_matrix(spec, 3, rng)
        jt = matgf.jordan_type(a)
        ae = matgf.embed_mat(a, jt.spec)
        for lam, sizes in jt.entries:
            shift = ae - matgf.Mat.scalar(jt.spec, 3, lam)
            for j in range(1, (sizes[0] if sizes else 0) + 1):
                ge_j = matgf.rank(shift ** (j - 1)) - matgf.rank(shift**j)
                if ge_j != sum(1 for s in sizes if s >= j):
                    bad += 1
    checks.append(
        _check("jordan_rank_sequence", "pass" if bad == 0 else "fail",
               q=spec.q, samples=10, failures=bad)
    )
    # regular <=> centralizer dimension n
    bad = 0
    spec2 = gf.field(2)
    for a in census._all_matrices(spec2, 2):
        if matgf.is_regular(a) != (matgf.centralizer_dimension(a) == 2):
            bad += 1
    for _ in range(10):
        a = matgf.random_matrix(spec, 3, rng)
        if matgf.is_regular(a) != (matgf.centralizer_dimension(a) == 3):
            bad += 1
    checks.append(
        _check("regular_centralizer_dimension", "pass" if bad == 0 else "fail",
               failures=bad)
    )
    return checks


_SUITES = {
    "weyl": _suite_weyl,
    "group": _suite_group,
    "lie-trace": _suite_lie_trace,
    "canon": _suite_canon,
}


def _cmd_verify(args) -> int:
    limits = _limits(args)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = [c for suite in suites for c in _SUITES[suite](args, limits)]
    ok = all(c["status"] != "fail" for c in checks)
    doc = {
        "command": "verify",
        "suite": args.suite,
        "seed": args.seed,
        "params": {
            "p": args.p,
            "k": args.k,
            "r": args.r,
            "n": args.n,
            "d": args.d,
            "q": args.q,
        },
        "checks": checks,
        "ok": ok,
    }
    _emit(doc, args)
    for c in checks:
        _say("%-32s %s" % (c["name"], c["status"]))
    return 0 if ok else 1


# -- count ------------------------------------------------------------------------

def _cmd_count(args) -> int:
    limits = _limits(args)
    qs = sorted({int(tok) for tok in args.qs.split(",")})
    strategies = ["class", "brute"] if args.strategy == "both" else [args.strategy]
    counts = []
    fit_points = []
    p_char = None
    extra = {}
    for q in qs:
        spec = _field_from_q(q)
        if args.p and spec.p != args.p:
            raise ValueError("q=%d is not a power of the declared p=%d" % (q, args.p))
        if p_char is None:
            p_char = spec.p
        elif spec.p != p_char:
            raise ValueError("all field sizes must share one characteristic")
        for strategy in strategies:
            if args.variety in ("lie", "commuting"):
                c = spec.one if args.variety == "lie" else spec.zero
                value = census.count_lie_pairs(args.n, spec, c, strategy, limits)
            else:
                # refuses d not dividing n: det(zeta x) = zeta^n det(x), so
                # both varieties are empty there
                zeta = typea_group.zeta_instance(spec, args.n, args.d).zeta
                extra["d"] = args.d
                extra.setdefault("zeta", {})[str(q)] = str(zeta)
                counter = census.count_group_pairs if args.variety == "group" else census.count_w
                value = counter(args.n, spec, zeta, strategy, limits)
            counts.append((q, value, strategy))
        fit_points.append((q, counts[-1][1]))
    # the exact polynomial must reproduce every count, whatever its strategy;
    # the class strategy evaluates it, so this checks brute against class
    poly = census.point_count_polynomial(args.variety, args.n, p_char, args.d, limits)
    for q, value, strategy in counts:
        if poly(q) != value:
            raise MathCheckFailed(
                "%s count %s at q=%d differs from the point-count polynomial %s"
                % (strategy, Decimal(value), q, poly)
            )
    expected = _expected_dimension(args.variety, args.n, args.d, p_char)
    # the fit compares the smallest q with the largest, which must be a power
    # q^m (m >= 2) of it; other q sets, and an empty variety (all counts 0),
    # leave the fit out
    k_low, k_high = (_prime_power(q)[1] for q in (qs[0], qs[-1]))
    fittable = (k_high > k_low and k_high % k_low == 0
                and all(count for _, count in fit_points))
    fit = census.estimate_dimension(fit_points) if fittable else None
    report = census.CountReport(
        variety=args.variety,
        n=args.n,
        p=p_char,
        counts=counts,
        fit=fit,
        expected_dimension=expected,
        extra=extra,
        point_count_polynomial=poly,
    )
    doc = report.to_json_dict()
    doc["command"] = "count"
    _emit(doc, args)
    if fit:
        _say(
            "count %s n=%d: fitted dimension %d (expected %s, residual %s), "
            "exact dimension %s"
            % (args.variety, args.n, fit.fitted, expected, doc["residual"],
               report.exact_dimension)
        )
    if args.expect and report.exact_dimension != expected:
        _say("--expect failed: exact dimension %s, expected %s"
             % (report.exact_dimension, expected))
        return 1
    return 0


def _expected_dimension(variety, n, d, p_char) -> int | None:
    """The dimension of the variety counted, as `dims` prints it; None where
    the trace obstruction leaves the Lie variety empty (p does not divide n)."""
    if variety == "commuting":
        return n * n + n
    if variety == "lie":
        if n % p_char:
            return None
        return weyl.component_dimensions(p_char, n).dim_scalar_commutator
    dims = typea_group.group_dims(n, d)
    return dims.dim_pairs if variety == "group" else dims.dim_twisted_classes


# -- classes and dims ---------------------------------------------------------------

# One entry of the "classes" list as json.dumps(doc, indent=2) lays it out
# at depth 2: its "data" items are (irreducible, partition) pairs at depth 4,
# each part of the partition on its own line at depth 6, and its closing
# holds the numbers of its type.
_ENTRY_OPEN = '    {\n      "data": [\n'
_ENTRY_CLOSE = (
    '\n      ],\n'
    '      "class_size": "%d",\n'
    '      "centralizer_order": "%d",\n'
    '      "centralizer_dimension": %d\n    }'
)
_PAIR = '        [\n          %s,\n          [\n%s\n          ]\n        ]'
_PART = "            %d"
_BLOCK = 1024  # class entries per piece of the written report


def _cmd_classes(args) -> int:
    """The classes report, its bytes those of json.dumps(doc, indent=2).

    The entries are filled into fixed templates from one class walk: each
    distinct (irreducible, partition) pair is rendered once, each type's
    closing (with its class size, centralizer order and dimension) once,
    and the entries are joined in blocks that are written one by one.
    """
    spec = _field_from_q(args.q)
    n, q = args.n, spec.q
    pairs, closings, per_type = {}, {}, Counter()
    blocks, entries = [], []
    for data, ctype in census._class_walk(n, spec, args.invertible, _limits(args)):
        texts = []
        for f, lam in data:
            key = (f.coeffs, lam)
            text = pairs.get(key)
            if text is None:
                parts = ",\n".join([_PART % part for part in lam])
                text = pairs[key] = _PAIR % (json.dumps(f.pretty()), parts)
            texts.append(text)
        closing = closings.get(ctype)
        if closing is None:
            order, size, dim = census._type_numbers(ctype, n, q)
            closing = closings[ctype] = _ENTRY_CLOSE % (size, order, dim)
        per_type[ctype] += 1
        entries.append(_ENTRY_OPEN + ",\n".join(texts) + closing)
        if len(entries) == _BLOCK:
            blocks.append(",\n".join(entries))
            entries = []
    if entries:
        blocks.append(",\n".join(entries))
    count = sum(per_type.values())
    total = str(sum(census._type_numbers(t, n, q)[1] * k for t, k in per_type.items()))
    expected = str(census.gl_order(n, q) if args.invertible else q ** (n * n))
    ok = total == expected
    doc = {
        "command": "classes",
        "n": n,
        "q": q,
        "invertible_only": args.invertible,
        "count": count,
        "total_class_size": total,
        "expected_total": expected,
        "classes": [],
        "ok": ok,
    }
    head, tail = json.dumps(doc, indent=2).split('"classes": []')
    pieces = [head + '"classes": [\n']
    for block in blocks:
        pieces += [block, ",\n"]
    pieces[-1] = "\n  ]" + tail + "\n"
    _emit_text(pieces, args)
    _say("classes n=%d q=%d: %d classes, completeness %s" % (n, q, count, ok))
    return 0 if ok else 1


def _cmd_dims(args) -> int:
    if args.family == "lie":
        doc = weyl.component_dimensions(args.p, args.n).as_dict()
    else:
        doc = typea_group.group_dims(args.n, args.d).as_dict()
    doc["command"] = "dims"
    doc["family"] = args.family
    _emit(doc, args)
    return 0


# -- command line -------------------------------------------------------------------

# The grammar, read by _parse_args and by the help text.  An option is (flag,
# kind, default, help): kind is int, str, bool for a flag that takes no value,
# or the tuple of allowed values; default ... makes the option required.  A
# command is (handler, help, positional, options), the positional a (dest,
# choices) pair or None; the top level's positional is the command.
_COMMANDS = {
    "construct": (_cmd_construct, "build and verify a named matrix pair",
                  ("target", ("weyl", "blockpair", "splitpair", "group")), (
        ("--p", int, 2, ""),
        ("--k", int, 1, ""),
        ("--alpha", str, "0", ""),
        ("--beta", str, "0", ""),
        ("--r", int, 2, ""),
        ("--scalars", str, "", "comma-separated field elements"),
        ("--a", str, "", "splitpair scalars a_1..a_r"),
        ("--b", str, "", "splitpair scalars b_1..b_r"),
        ("--n", int, 2, ""),
        ("--d", int, 2, ""),
        ("--q", int, 3, ""),
        ("--block", str, "", "matrix text for the group block seed"),
    )),
    "verify": (_cmd_verify, "run a named verification suite", None, (
        ("--suite", (*_SUITES, "all"), ..., ""),
        ("--p", int, 2, ""),
        ("--k", int, 1, ""),
        ("--r", int, 2, ""),
        ("--n", int, 2, ""),
        ("--d", int, 2, ""),
        ("--q", int, 3, ""),
    )),
    "count": (_cmd_count, "census a variety over a list of field sizes",
              ("variety", ("lie", "commuting", "group", "W")), (
        ("--n", int, ..., ""),
        ("--p", int, 0, "declared characteristic; every q must be a power of it"),
        ("--qs", str, ..., "comma-separated field sizes"),
        ("--d", int, 2, "order of zeta for group/W"),
        ("--strategy", ("class", "brute", "both"), "class", ""),
        ("--expect", bool, False, "exit nonzero when the exact dimension mismatches the formula"),
    )),
    "classes": (_cmd_classes, "enumerate conjugacy classes", None, (
        ("--n", int, ..., ""),
        ("--q", int, ..., ""),
        ("--invertible", bool, False, ""),
    )),
    "dims": (_cmd_dims, "closed-form dimension arithmetic", ("family", ("lie", "group")), (
        ("--p", int, 2, ""),
        ("--n", int, ..., ""),
        ("--d", int, 2, ""),
    )),
}
_TOP = (None, "Exact commutator-variety constructions, checks, and censuses over finite fields.",
        ("command", _COMMANDS), (
    ("--seed", int, 0, "seed for all randomness"),
    ("--max-classes", int, census.DEFAULT_LIMITS.max_classes, "class and build-step limit"),
    ("--max-brute", int, census.DEFAULT_LIMITS.max_brute, "brute scan limit"),
    ("--output", str, None, "also write the JSON document to this path"),
))
_HELP = ("-h/--help", bool, False, "show this help message and exit")


def _parse_args(argv):
    """The namespace, and the errors, that argparse makes of argv."""
    args = types.SimpleNamespace()
    _read(args, "commvar", _TOP, argv)
    return args


def _read(args, prog, entry, argv) -> list:
    """Set on args what argv gives at one level of the table and return the
    tokens it does not recognize; after a command, its own level reads on."""
    _, _, positional, options = entry
    flags = {"-h": _HELP, "--help": _HELP} | {opt[0]: opt for opt in options}
    for flag, _, default, _ in options:
        setattr(args, flag[2:].replace("-", "_"), default)
    dest, choices = positional or (None, None)
    missing = [dest] * bool(dest) + [opt[0] for opt in options if opt[2] is ...]
    extras = []
    try:
        found = [_option(tok, flags) for tok in argv]  # argparse reports ambiguity first
        i = 0
        while i < len(argv):
            tok, hit = argv[i], found[i]
            i += 1
            if hit is None and dest in missing:
                setattr(args, dest, _value(dest, choices, tok))
                missing.remove(dest)
                if choices is _COMMANDS:
                    args.func = _COMMANDS[tok][0]
                    extras += _read(args, "%s %s" % (prog, tok), _COMMANDS[tok], argv[i:])
                    break
            elif hit is None or hit[0] is None:
                extras.append(tok)
            else:
                (flag, kind, _, _), value = hit
                if kind is bool and value is not None:
                    raise ValueError("argument %s: ignored explicit argument %r" % (flag, value))
                if hit[0] is _HELP:
                    sys.stdout.write(_help(prog, entry))
                    raise SystemExit(0)
                if kind is not bool and value is None:
                    if i == len(argv) or found[i] is not None:
                        raise ValueError("argument %s: expected one argument" % flag)
                    value, i = argv[i], i + 1
                setattr(args, flag[2:].replace("-", "_"), _value(flag, kind, value))
                if flag in missing:
                    missing.remove(flag)
        if missing:
            raise ValueError("the following arguments are required: %s" % ", ".join(missing))
        if extras and entry is _TOP:
            raise ValueError("unrecognized arguments: %s" % " ".join(extras))
    except ValueError as exc:
        sys.stderr.write("%s\n%s: error: %s\n" % (_usage(prog, entry), prog, exc))
        raise SystemExit(2) from None
    return extras


def _option(tok: str, flags: dict):
    """(option, its "=" value or None) for a flag or a prefix that only it
    starts with, (None, None) for an unknown option, None for a value."""
    if tok in flags:
        return flags[tok], None
    if tok[:1] != "-" or tok == "-":
        return None
    name, eq, value = tok.partition("=")
    if eq and name in flags:
        return flags[name], value
    matches = [f for f in flags if f.startswith(name)] if name[:2] == "--" and name != "--" else []
    if len(matches) > 1:
        raise ValueError("ambiguous option: %s could match %s" % (tok, ", ".join(matches)))
    if matches:
        return flags[matches[0]], value if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", tok) or " " in tok else (None, None)


def _value(name: str, kind, tok):
    """tok as the value of the option or positional name; a flag's is True."""
    if kind is bool:
        return True
    if isinstance(kind, type):
        try:
            return kind(tok)
        except ValueError:
            raise ValueError("argument %s: invalid %s value: %r" % (name, kind.__name__, tok)) from None
    if tok not in kind:
        raise ValueError("argument %s: invalid choice: %r (choose from %s)"
                         % (name, tok, ", ".join(map(repr, kind))))
    return tok


def _metavar(flag: str, kind) -> str:
    if kind is bool:
        return flag
    if isinstance(kind, type):
        return "%s %s" % (flag, flag[2:].replace("-", "_").upper())
    return "%s {%s}" % (flag, ",".join(kind))


def _usage(prog: str, entry) -> str:
    _, _, positional, options = entry
    words = ["usage:", prog, "[-h]"] + [
        _metavar(flag, kind) if default is ... else "[%s]" % _metavar(flag, kind)
        for flag, kind, default, _ in options
    ]
    if positional:
        words.append("{%s}" % ",".join(positional[1]) + " ..." * (entry is _TOP))
    return " ".join(words)


def _help(prog: str, entry) -> str:
    _, summary, _, options = entry
    rows = [(name, cmd[1]) for name, cmd in _COMMANDS.items()] if entry is _TOP else []
    rows += [("-h, --help", _HELP[3])] + [(_metavar(o[0], o[1]), o[3]) for o in options]
    lines = [("  %-32s %s" % row).rstrip() for row in rows]
    return "%s\n\n%s\n\n%s\n" % (_usage(prog, entry), summary, "\n".join(lines))


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (LimitExceeded, ValueError) as exc:
        _say("error: %s" % exc)
        return 2
    except AssertionError as exc:
        _say("mathematical check failed: %s" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
