"""The range checks, each over the rules its caller passes.

Tier-1 runs them at small n (``test_acceptance.py``, ``test_assembly.py``)
and ``full_range.py`` at the ranges the package declares, so each bound is
stated once.  Each check returns ``(ok, detail)``: whether every value is
within its bound, and the worst values and where, for the caller's
report or assertion.  A NaN is worse than any bound.  :func:`sha256`
checks outputs against a pinned digest, to the bit.
"""

import collections
import hashlib
import math

import mpmath
import numpy as np
from scipy.special import eval_gegenbauer

from splinequad.assembly import EXTENDED_DPS, assemble
from splinequad.families import Family, build_family

from paper import gegenbauer_values, paper_weight


def _worst(values, least=False):
    """(value, key) of the largest value in the dict values, or the
    smallest with least; a NaN is picked first either way."""
    sign = -1 if least else 1
    at = max(values, key=lambda k: (math.isnan(values[k]), sign * values[k]))
    return values[at], at


def _gap(x, w, y, v):
    """The largest |x - y| or |w - v| over the arrays; NaN propagates."""
    return float(np.max(np.maximum(abs(x - y), abs(w - v)), initial=0.0))


def _reflection_gap(x, w, centre):
    """How far nodes x and weights w are from their mirror image about centre."""
    return _gap(x - centre, w, centre - x[::-1], w[::-1])


def _at(rule):
    return rule.family.name, rule.n


def cells(rules):
    """Criterion 4 over scaled rules: every weight positive, every node in
    its unit cell, and the C1 fixed node exactly at 0."""
    faults, checked = [], 0
    for rule in rules:
        for k, iv in enumerate(rule.intervals):
            checked += len(iv.nodes)
            faults += [(*_at(rule), k, x, w) for x, w in zip(iv.nodes, iv.weights)
                       if not (w > 0 and k <= x <= k + 1)]
        if rule.family in (Family.C1_ODD_ENDPOINT, Family.C1_EVEN) and rule.intervals[0].nodes[0] != 0.0:
            faults.append((*_at(rule), "fixed node", rule.intervals[0].nodes[0]))
    return not faults, (f"{checked} node/weight pairs, {len(faults)} with a weight <= 0, a node "
                        f"outside its cell or a fixed node off 0 {faults[:3]}")


def symmetries(rules, sign_pairs):
    """Criterion 5 over scaled rules: each C0 odd interval mirrors about
    its cell centre, the C1 odd free nodes about 1/2, and C1 even's second
    interval is its first reflected about 1, within 1e-12.  C0 even has
    no symmetry: its asymmetry stays above 1e-6, and each (delta > 0,
    delta < 0) pair in sign_pairs mirrors about 1/2 within 1e-13."""
    symmetry, asymmetry = {}, {}
    for rule in rules:
        ivs = rule.intervals
        if rule.family is Family.C0_EVEN:
            asymmetry[_at(rule)] = _reflection_gap(ivs[0].nodes, ivs[0].weights, 0.5)
        elif rule.family is Family.C0_ODD:
            symmetry[_at(rule)] = float(np.max([_reflection_gap(iv.nodes, iv.weights, k + 0.5)
                                                for k, iv in enumerate(ivs)]))
        elif rule.family is Family.C1_EVEN:
            first, second = ivs
            symmetry[_at(rule)] = _gap(second.nodes, second.weights,
                                       2 - first.nodes[:0:-1], first.weights[:0:-1])
        else:
            free = ivs[0].nodes != 0.0
            symmetry[_at(rule)] = _reflection_gap(ivs[0].nodes[free], ivs[0].weights[free], 0.5)
    mirror = {_at(plus): _gap(minus.intervals[0].nodes[::-1], minus.intervals[0].weights[::-1],
                              1 - plus.intervals[0].nodes, plus.intervals[0].weights)
              for plus, minus in sign_pairs}
    (dev, dev_at), (asym, asym_at), (mir, mir_at) = (
        _worst(symmetry), _worst(asymmetry, least=True), _worst(mirror))
    ok = dev <= 1e-12 and asym > 1e-6 and mir <= 1e-13
    return ok, (f"symmetric families dev {dev:.2e} at {dev_at} (tol 1e-12), smallest "
                f"C0 even asymmetry {asym:.2e} at {asym_at} (> 1e-06), delta-sign mirror "
                f"dev {mir:.2e} at {mir_at} (tol 1e-13)")


def weight_sums(rules):
    """Criterion 8 over scaled rules: the weights of a period sum to its
    length within 1e-12."""
    deviations = {_at(rule): abs(sum(w for iv in rule.intervals for w in iv.weights)
                                 - rule.period_intervals) for rule in rules}
    dev, at = _worst(deviations)
    return dev <= 1e-12, f"worst deviation {dev:.2e} at {at} (tol 1e-12)"


def double_vs_extended(pairs):
    """Over (double, extended) pairs of one scaled rule: the double rule
    is the extended one rounded, nodes within 2.3e-16 and weights within
    1 ulp."""
    nodes, ulps = {}, {}
    for double, extended in pairs:
        for k, (div, eiv) in enumerate(zip(double.intervals, extended.intervals, strict=True)):
            xe, we = eiv.nodes.astype(float), eiv.weights.astype(float)
            if div.nodes.shape != xe.shape:
                return False, f"{_at(double)} interval {k}: {len(div.nodes)} nodes, not {len(xe)}"
            nodes[(*_at(double), k)] = float(np.max(abs(div.nodes - xe), initial=0.0))
            ulps[(*_at(double), k)] = float(np.max(abs(div.weights - we) / np.spacing(abs(we)),
                                                   initial=0.0))
    (node, node_at), (ulp, ulp_at) = _worst(nodes), _worst(ulps)
    return node <= 2.3e-16 and ulp <= 1, (f"nodes within {node:.2e} at {node_at} (tol 2.3e-16), "
                                          f"weights within {ulp:g} ulp at {ulp_at} (tol 1)")


def extended_accuracy(family, n, rule, dps):
    """The 50-digit reference rule of family at n against its spec
    assembled at dps digits: nodes within 1e-50, weights within 1e-50
    relative, and the free weights within 1e-50 relative of the paper's
    A / (R' S f) at dps digits at the reference nodes.  Where R has one
    parity, the free nodes and weights, but an odd middle one, are mirror
    pairs equal to the last bit, in this rule and in the double one."""
    spec = build_family(family, n)
    errors, unequal = {"node": 0, "weight": 0, "paper weight": 0}, []

    def track(what, error):
        errors[what] = max([errors[what], *error], key=lambda e: (mpmath.isnan(e), e))

    with mpmath.workdps(dps):
        reference = assemble(spec, extended=True)
        for riv, ref in zip(rule.intervals, reference.intervals, strict=True):
            if riv.nodes.shape != ref.nodes.shape:
                return False, f"{len(riv.nodes)} nodes in an interval, not {len(ref.nodes)}"
            track("node", abs(riv.nodes - ref.nodes))
            track("weight", abs(riv.weights / ref.weights - 1))
        # the paper's form shares no code with assembly's; C1 even's
        # reflected second interval has no interval of its own in the spec
        for k, (iv, riv, ref) in enumerate(zip(spec.intervals, rule.intervals, reference.intervals)):
            free = iv.fixed_node is not None
            paper = [paper_weight(spec, k, x) for x in ref.nodes[free:]]
            track("paper weight", abs(riv.weights[free:] / paper - 1))
    for built in (assemble(spec), rule):
        for iv, riv in zip(spec.intervals, built.intervals):
            if len({d % 2 for d, _ in iv.r.terms}) == 1:
                free = iv.fixed_node is not None
                x, w = riv.nodes[free:], riv.weights[free:]
                half = len(x) // 2
                # negation is exact at the rule's own precision
                with mpmath.workdps(EXTENDED_DPS):
                    if not (np.all(x[:half] == -x[::-1][:half]) and np.all(w[:half] == w[::-1][:half])):
                        unequal.append(type(x[0]).__name__)
    ok = all(error <= 1e-50 for error in errors.values()) and not unequal
    return ok, (", ".join(f"{what}s within {float(error):.3g}" for what, error in errors.items())
                + f" (tol 1e-50; weights relative) of {dps} digits; unequal mirror pairs in "
                f"{unequal or 'none'}")


def _moment_errors(spec, rule, gegenbauer):
    """Per interval of spec with free nodes: the quasi-Gauss moment check.

    With lambda_i = w_i omega(x_i), the free nodes and weights of an R of
    degree m integrate C_k exactly against omega for k <= 2m - 1 - (top
    minus bottom degree of R): sum_i lambda_i C_k(x_i) = mu0 for k = 0,
    0 for larger k.  Yields (worst error of those sums, error one degree
    past), each relative to mu0 C_k(1), the sum's largest possible term
    size.  ``gegenbauer(alpha, x, top)`` gives C_0(x)..C_top(x) at each
    node as the rows of an array; C0 odd n = 1, not a Christoffel rule,
    has no free node."""
    for iv, riv in zip(spec.intervals, rule.intervals):
        if not iv.expected_free_nodes:
            continue
        free = iv.fixed_node is not None
        x, w = riv.nodes[free:], riv.weights[free:]
        alpha, degrees = iv.r.alpha, [d for d, _ in iv.r.terms]
        top = 2 * max(degrees) - 1 - (max(degrees) - min(degrees))
        real = type(w[0])  # float64 or mpf
        mu0 = real(4) / 3 if alpha == 1.5 else real(16) / 15
        lam = w * ((1 - x * x) ** int(alpha - 0.5))
        sums = lam @ gegenbauer(alpha, x, top + 1)
        sums[0] -= mu0
        ones = gegenbauer(alpha, np.array([real(1)]), top + 1)[0]
        errors = [abs(total) / (mu0 * one) for total, one in zip(sums, ones)]
        yield max(errors[:-1]), errors[-1]


def scipy_gegenbauer(alpha, x, top):
    return eval_gegenbauer(np.arange(top + 1), alpha, x[:, None])


def mpf_gegenbauer(alpha, x, top):
    return np.array([gegenbauer_values(alpha, y, top) for y in x], dtype=object)


def moments(pairs, gegenbauer, bound):
    """The moment check over (spec, reference rule) pairs: every exact sum
    within bound, every sum one degree past above 1e-9."""
    exact, past = {}, {}
    for spec, rule in pairs:
        for k, (e, p) in enumerate(_moment_errors(spec, rule, gegenbauer)):
            exact[spec.id.name, spec.n, k], past[spec.id.name, spec.n, k] = e, p
    (e, e_at), (p, p_at) = _worst(exact), _worst(past, least=True)
    return e <= bound and p > 1e-9, (f"exact sums within {float(e):.3g} at {e_at} (tol {bound:g}), "
                                     f"one degree past at least {float(p):.3g} at {p_at} (> 1e-09)")


# a rule's intervals as tuples of floats, whose repr is, byte for byte, the
# repr the rules had when they held their values in tuples
TupleInterval = collections.namedtuple("RuleInterval", ["nodes", "weights"])


def tuple_view(intervals):
    return tuple(TupleInterval(tuple(iv.nodes.tolist()), tuple(iv.weights.tolist()))
                 for iv in intervals)


def double_text(rule):
    """What a double rule is hashed by: the repr of its tuple view."""
    return repr(tuple_view(rule.intervals))


def mpf_text(rule):
    """What an extended rule is hashed by: per interval, the mpf bits
    (``_mpf_``) of its nodes, then of its weights."""
    return repr([[v._mpf_ for v in [*iv.nodes, *iv.weights]] for iv in rule.intervals])


def sha256(texts, pinned):
    """Whether the SHA-256 of the texts, one rule's each, in order, is
    the pinned hex digest."""
    digest, count = hashlib.sha256(), 0
    for count, text in enumerate(texts, 1):
        digest.update(text.encode())
    value = digest.hexdigest()
    return value == pinned, f"SHA-256 {value} of {count} rules (pinned {pinned})"
