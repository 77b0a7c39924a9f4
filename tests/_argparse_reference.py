"""Reference: the argparse parser that commvar.cli used to build, verbatim.

cli._parse_args reads the same grammar from a table without argparse; the
tests run argument lists through both and compare the namespaces, and the
exit code and last stderr line of each rejection.
"""

import argparse

from commvar import census
from commvar.cli import _SUITES, _cmd_classes, _cmd_construct, _cmd_count, _cmd_dims, _cmd_verify


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commvar",
        description="Exact commutator-variety constructions, checks, and censuses over finite fields.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--max-classes", type=int, default=census.DEFAULT_LIMITS.max_classes)
    parser.add_argument("--max-brute", type=int, default=census.DEFAULT_LIMITS.max_brute,
                        help="brute scan limit")
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
    v.add_argument("--suite", choices=[*_SUITES, "all"], required=True)
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
    ct.add_argument("--d", type=int, default=2, help="order of zeta for group/W")
    ct.add_argument("--strategy", choices=["class", "brute", "both"], default="class")
    ct.add_argument("--expect", action="store_true",
                    help="exit nonzero when the exact dimension mismatches the formula")
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
