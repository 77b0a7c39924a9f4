"""Command-line front end: constructions, verification suites, and censuses.

All results are emitted as a single JSON document on stdout; human-readable
summaries go to stderr.  Runs are deterministic for a given configuration:
all randomness flows from --seed.  --threads is accepted and ignored; every
census runs in one thread.

Exit status: 0 all checks pass, 1 a mathematical check failed,
2 configuration or feasibility error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import census, gf, matgf, polyring, typea_group, weyl
from .errors import LimitExceeded

ENV_MAX_BRUTE = "COMMVAR_MAX_BRUTE"


def _prime_power(q: int) -> tuple[int, int]:
    """q = p^k with p prime; rejects other inputs."""
    if q < 2:
        raise ValueError("field size must be >= 2")
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError("%d is not a prime power" % q)
            return p, k
    return q, 1


def _field_from_q(q: int) -> gf.FieldSpec:
    p, k = _prime_power(q)
    return gf.field(p, k)


def _limits(args) -> census.CensusLimits:
    max_brute = args.max_brute
    env = os.environ.get(ENV_MAX_BRUTE)
    if env is not None:
        max_brute = int(env)
    return census.CensusLimits(max_classes=args.max_classes, max_brute=max_brute)


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)


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
        regular = matgf.is_regular(pair.x)
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
        ok = ok and regular and len(inf.factors) == 1
    elif args.target == "splitpair":
        a_scalars = _parse_scalars(spec, args.a, args.r)
        b_scalars = _parse_scalars(spec, args.b, args.r)
        a, b = weyl.generic_split_pair(spec, a_scalars, b_scalars)
        jq = weyl.joint_centralizer_dimension(a, b)
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
    # block size divisibility for sampled solutions
    try:
        bad = 0
        for a, b in weyl.sample_solution_pairs(spec, args.r, 25, seed=args.seed):
            for m in (a, b):
                if any(s % spec.p for s in matgf.jordan_type(m).all_sizes()):
                    bad += 1
        checks.append(
            _check(
                "block_divisibility",
                "pass" if bad == 0 else "fail",
                samples=25,
                violations=bad,
            )
        )
    except LimitExceeded as exc:
        checks.append(_check("block_divisibility", "skipped", reason=str(exc)))
    return checks


def _suite_group(args, limits) -> list[dict]:
    spec = _field_from_q(args.q)
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
        while True:
            a = matgf.Mat(spec, [[rng.randrange(spec.q) for _ in range(m)] for _ in range(m)])
            if a.is_invertible():
                break
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
    # coset law: exhaustive when small, else sampled witnesses
    size = census.gl_order(args.n, spec.q)
    if size * size <= 200_000 and spec.q ** (args.n**2) <= limits.max_brute:
        invertibles = [
            x for x in census._all_matrices(spec, args.n) if x.is_invertible()
        ]
        zi = matgf.Mat.scalar(spec, args.n, inst.zeta)
        bad = 0
        for x in invertibles:
            brute = sum(
                1 for y in invertibles if matgf.group_commutator(x, y) == zi
            )
            coset = typea_group.solution_set_for_x(x, inst.zeta)
            expect = coset.count if coset else 0
            if brute != expect:
                bad += 1
        checks.append(
            _check(
                "solution_coset_law",
                "pass" if bad == 0 else "fail",
                mode="exhaustive",
                group_order=size,
                failures=bad,
            )
        )
    else:
        bad = 0
        tried = 0
        for _ in range(10):
            while True:
                x = matgf.Mat(
                    spec,
                    [[rng.randrange(spec.q) for _ in range(args.n)] for _ in range(args.n)],
                )
                if x.is_invertible():
                    break
            coset = typea_group.solution_set_for_x(x, inst.zeta)
            if coset is None:
                continue
            tried += 1
            if not coset.contains(coset.witness):
                bad += 1
        checks.append(
            _check(
                "solution_coset_law",
                "pass" if bad == 0 else "fail",
                mode="sampled",
                witnesses=tried,
                failures=bad,
            )
        )
    return checks


def _suite_lie_trace(args, limits) -> list[dict]:
    spec = gf.field(args.p, args.k)
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
    if spec.q ** (2 * args.n**2) <= min(census.PAIR_SCAN_MAX, limits.max_brute):
        brute = census.count_lie_pairs(args.n, spec, 1, "brute", limits)
        details["brute_count"] = str(brute)
        ok = count == 0 and brute == 0
    else:
        ok = count == 0
    return [_check("trace_obstruction", "pass" if ok else "fail", **details)]


def _suite_canon(args, limits) -> list[dict]:
    rng = random.Random(args.seed)
    checks = []
    # invariant factors classify similarity: exhaustive 2x2 over F_2 and F_3
    bad = 0
    for q in (2, 3):
        spec = gf.field(q)
        mats = list(census._all_matrices(spec, 2))
        gl = [g for g in mats if g.is_invertible()]
        for a in mats:
            orbit = {g @ a @ g.inverse() for g in gl}
            fa = matgf.invariant_factors(a)
            for b in mats:
                if (matgf.invariant_factors(b) == fa) != (b in orbit):
                    bad += 1
    checks.append(
        _check("invariant_factor_similarity", "pass" if bad == 0 else "fail",
               fields=[2, 3], size=2, failures=bad)
    )
    # jordan partitions match the rank sequences of (A - xI)^j
    spec = _field_from_q(args.q)
    bad = 0
    for _ in range(10):
        a = matgf.Mat(spec, [[rng.randrange(spec.q) for _ in range(3)] for _ in range(3)])
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
        a = matgf.Mat(spec, [[rng.randrange(spec.q) for _ in range(3)] for _ in range(3)])
        if matgf.is_regular(a) != (matgf.centralizer_dimension(a) == 3):
            bad += 1
    checks.append(
        _check("regular_centralizer_dimension", "pass" if bad == 0 else "fail",
               failures=bad)
    )
    return checks


def _cmd_verify(args) -> int:
    limits = _limits(args)
    suites = (
        ["weyl", "group", "lie-trace", "canon"] if args.suite == "all" else [args.suite]
    )
    checks = []
    for suite in suites:
        if suite == "weyl":
            checks.extend(_suite_weyl(args, limits))
        elif suite == "group":
            checks.extend(_suite_group(args, limits))
        elif suite == "lie-trace":
            checks.extend(_suite_lie_trace(args, limits))
        elif suite == "canon":
            checks.extend(_suite_canon(args, limits))
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
        per_strategy = {}
        for strategy in strategies:
            if args.variety == "lie":
                c = spec.parse(args.c) if args.c else spec.one
                value = census.count_lie_pairs(
                    args.n, spec, c, strategy, limits
                )
            elif args.variety == "commuting":
                value = census.count_commuting_pairs(
                    args.n, spec, strategy, limits
                )
            else:
                zeta = gf.root_of_unity(spec, args.d)
                extra["d"] = args.d
                extra.setdefault("zeta", {})[str(q)] = str(zeta)
                if args.variety == "group":
                    value = census.count_group_pairs(
                        args.n, spec, zeta, strategy, limits
                    )
                else:  # W
                    value = census.count_w(
                        args.n, spec, zeta, strategy, limits
                    )
            per_strategy[strategy] = value
            counts.append((q, value, strategy))
        if len(per_strategy) == 2 and per_strategy["class"] != per_strategy["brute"]:
            raise AssertionError(
                "strategy disagreement at q=%d: class=%d brute=%d"
                % (q, per_strategy["class"], per_strategy["brute"])
            )
        fit_points.append((q, counts[-1][1]))
    expected = _expected_dimension(args, p_char)
    fit = census.estimate_dimension(fit_points) if len(fit_points) >= 2 else None
    report = census.CountReport(
        variety=args.variety,
        n=args.n,
        p=p_char,
        counts=counts,
        fit=fit,
        expected_dimension=expected,
        extra=extra,
    )
    doc = report.to_json_dict()
    doc["command"] = "count"
    _emit(doc, args)
    if fit:
        _say(
            "count %s n=%d: fitted dimension %d (expected %s, residual %s)"
            % (args.variety, args.n, fit.fitted, expected, doc["residual"])
        )
    ok = (not args.expect) or (fit is not None and fit.fitted == expected)
    return 0 if ok else 1


def _expected_dimension(args, p_char) -> int | None:
    n = args.n
    if args.variety == "lie":
        if n % p_char:
            return None
        return n * n + n // p_char
    if args.variety == "commuting":
        return n * n + n
    if args.variety == "group":
        return n * n + n // args.d
    return n * n + n // args.d - n


# -- classes and dims ---------------------------------------------------------------

def _cmd_classes(args) -> int:
    limits = _limits(args)
    spec = _field_from_q(args.q)
    classes = census.enumerate_classes(args.n, spec, args.invertible, limits)
    total = sum(c.class_size for c in classes)
    doc = {
        "command": "classes",
        "n": args.n,
        "q": spec.q,
        "invertible_only": args.invertible,
        "count": len(classes),
        "total_class_size": str(total),
        "expected_total": str(
            census.gl_order(args.n, spec.q) if args.invertible else spec.q ** (args.n**2)
        ),
        "classes": [
            {
                "data": [[f.pretty(), list(lam)] for f, lam in c.data],
                "class_size": str(c.class_size),
                "centralizer_order": str(c.centralizer_order),
                "centralizer_dimension": c.dim_centralizer(),
            }
            for c in classes
        ],
    }
    ok = doc["total_class_size"] == doc["expected_total"]
    doc["ok"] = ok
    _emit(doc, args)
    _say("classes n=%d q=%d: %d classes, completeness %s" % (args.n, spec.q, len(classes), ok))
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


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commvar",
        description="Exact commutator-variety constructions, checks, and censuses over finite fields.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    parser.add_argument("--max-classes", type=int, default=census.DEFAULT_LIMITS.max_classes)
    parser.add_argument("--max-brute", type=int, default=census.DEFAULT_LIMITS.max_brute,
                        help="brute scan limit (env %s overrides)" % ENV_MAX_BRUTE)
    parser.add_argument("--output", help="also write the JSON document to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build and verify a named matrix pair")
    c.add_argument("target", choices=["weyl", "blockpair", "splitpair", "group"])
    c.add_argument("--p", type=int, default=2)
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--alpha", default="0")
    c.add_argument("--beta", default="0")
    c.add_argument("--r", type=int, default=2)
    c.add_argument("--scalars", default="", help="comma-separated field elements")
    c.add_argument("--a", default="", help="splitpair scalars a_1..a_r")
    c.add_argument("--b", default="", help="splitpair scalars b_1..b_r")
    c.add_argument("--n", type=int, default=2)
    c.add_argument("--d", type=int, default=2)
    c.add_argument("--q", type=int, default=3)
    c.add_argument("--block", default="", help="matrix text for the group block seed")
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", choices=["weyl", "group", "lie-trace", "canon", "all"],
                   required=True)
    v.add_argument("--p", type=int, default=2)
    v.add_argument("--k", type=int, default=1)
    v.add_argument("--r", type=int, default=2)
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--d", type=int, default=2)
    v.add_argument("--q", type=int, default=3)
    v.set_defaults(func=_cmd_verify)

    ct = sub.add_parser("count", help="census a variety over a list of field sizes")
    ct.add_argument("variety", choices=["lie", "commuting", "group", "W"])
    ct.add_argument("--n", type=int, required=True)
    ct.add_argument("--p", type=int, default=0,
                    help="declared characteristic; every q must be a power of it")
    ct.add_argument("--qs", required=True, help="comma-separated field sizes")
    ct.add_argument("--c", default="", help="scalar c for the lie variety (default 1)")
    ct.add_argument("--d", type=int, default=2, help="order of zeta for group/W")
    ct.add_argument("--strategy", choices=["class", "brute", "both"], default="class")
    ct.add_argument("--expect", action="store_true",
                    help="exit nonzero when the fitted dimension mismatches the formula")
    ct.set_defaults(func=_cmd_count)

    cl = sub.add_parser("classes", help="enumerate conjugacy classes")
    cl.add_argument("--n", type=int, required=True)
    cl.add_argument("--q", type=int, required=True)
    cl.add_argument("--invertible", action="store_true")
    cl.set_defaults(func=_cmd_classes)

    d = sub.add_parser("dims", help="closed-form dimension arithmetic")
    d.add_argument("family", choices=["lie", "group"])
    d.add_argument("--p", type=int, default=2)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--d", type=int, default=2)
    d.set_defaults(func=_cmd_dims)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
