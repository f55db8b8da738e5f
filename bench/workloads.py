"""Seeded inputs, operations and output checks of the four workloads.

Each workload builds its inputs from the seed with its own generator
(``random.Random``).  The constructions mirror the acceptance suite
(C4-C9 in ``tests/test_acceptance.py``) without importing the tests, and
every curve point is computed here from the model curve
``branch * exp((lambda_tilde + 2 pi i) t)`` and the Moebius map that
moved it, so each answer has a ground truth independent of moeblox.

An operation (``Op``) is what a workload times as one op: one query,
one new triple, one render or one CLI process, always through moeblox's
public functions or its command line.  Its ``check`` compares the
outcome with that ground truth after the timed block.  Ops flagged ``known_defect``
sit where ROADMAP items 3 and 4 report failures today (spirals beyond
the acceptance envelope, a scene with a non-numeric radius).  Their
failures are counted like any other but never mark the run incorrect,
so that fixing those items shows as fewer failed ops.

A timed run does ``round(seconds * rate / block)`` blocks of ``block``
ops.  ``rate`` is the first benchmarked commit's ops per second on a
2-vCPU machine, so a run of that commit takes about ``--seconds``; the
number of ops never depends on the machine's speed.

Each workload reports ``latency_tail_ms`` at one fixed percentile
(``tail_percentile``): the highest of p99, p90, p85 and p75 that leaves
at least 10 samples beyond it in a run of ``run_seconds`` in
``BENCHMARK.json``.  It is fixed so that the metric means the
same on both sides of a comparison.  The query workloads take it in
every block of 1,000 ops and report the median over the blocks
(``tail_per_block``): the machine drifts between a fast and a slow
state, and a percentile of the whole run jumps to the slow state's
value as soon as that state holds more than 1% of the ops.  ``render``
and ``cli`` have about 100 ops per run and take it over the whole run.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import moeblox as mx

TWO_PI = 2.0 * math.pi
ENVELOPE = (0.25, 2.5)  # |lambda_tilde| covered by the acceptance suite
ENVELOPE_T = 2.0
BEYOND = (2.5, 8.0)
BEYOND_T = 4.0



@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], "str | None"]  # None when the outcome is right
    known_defect: bool = False


# ---------------------------------------------------------------------------
# generator and ground truth
# ---------------------------------------------------------------------------

def signed(rng: random.Random, lo: float, hi: float) -> float:
    return rng.uniform(lo, hi) * (1 if rng.random() < 0.5 else -1)


def branch(rng: random.Random) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def random_moebius(rng: random.Random, lo=-2.0, hi=2.0, min_det=0.5):
    """Entries (a, b, c, d) of a well-conditioned map, as the test suite's
    ``random_moebius`` draws them."""
    while True:
        e = tuple(complex(rng.uniform(lo, hi), rng.uniform(lo, hi)) for _ in range(4))
        if abs(e[0] * e[3] - e[1] * e[2]) >= min_det:
            return e


def mobius(m, z: complex) -> complex:
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def mobius_inverse(m):
    a, b, c, d = m
    return (d, -b, -c, a)


def mobius_derivative(m, z: complex) -> complex:
    a, b, c, d = m
    return (a * d - b * c) / (c * z + d) ** 2


def model_point(lt: float, t: float, branch: float) -> complex:
    return branch * cmath.exp(complex(lt, TWO_PI) * t)


def moved_triple(m, lt: float):
    """The standard triple of ``lt`` carried by the map ``m`` (validated)."""
    return mx.apply_map(mx.MoebiusMap(*m), mx.standard_triple(mx.SlsParameter.finite(lt)))


def on_model_curve_residual(m, lt: float, z: complex) -> float:
    """Turn-fraction residual of the model-curve congruence at m^-1(z)."""
    w = mobius(mobius_inverse(m), z)
    rho = math.log(abs(w)) / lt
    phi = cmath.phase(w) / TWO_PI
    return abs(math.remainder(rho - phi, 0.5))


def projective_residual(a, b) -> float:
    """Distance between two quadruples as points of projective space."""
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    plus = math.sqrt(sum((x / na - y / nb) ** 2 for x, y in zip(a, b)))
    minus = math.sqrt(sum((x / na + y / nb) ** 2 for x, y in zip(a, b)))
    return min(plus, minus)


def standard_quadruples(lt: float):
    return ((0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, -1.0), (1.0, 0.0, 0.0, -math.exp(2.0 * lt)))


def point(z: complex):
    return mx.ExtendedPoint.from_complex(z)


def describe(outcome) -> str:
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"
    return f"returned {outcome!r:.120}"


def expect_member(expected: bool):
    def check(outcome):
        if isinstance(outcome, mx.MembershipReport):
            outcome = outcome.member
        if outcome is expected:
            return None
        return f"membership should be {expected}, {describe(outcome)}"
    return check


def expect_refusal(kind):
    def check(outcome):
        return None if isinstance(outcome, kind) else f"expected {kind.__name__}, {describe(outcome)}"
    return check


def tangent_check(z: complex, direction: complex):
    """The returned line must pass z along the curve's direction there."""
    def check(line):
        if not isinstance(line, mx.Cycle):
            return f"tangent line expected, {describe(line)}"
        normal = complex(line.l, line.n)
        scale = max(abs(normal), 1e-300)
        if abs(line.k) > 1e-9 * scale:
            return f"tangent is not a line (k = {line.k!r})"
        miss = abs(2.0 * (line.l * z.real + line.n * z.imag) - line.m) / scale
        if miss > 1e-6 * max(1.0, abs(z)):
            return f"tangent line misses the point by {miss:.3e}"
        along = 1j * normal
        sine = abs((along * direction.conjugate()).imag) / (abs(along) * abs(direction))
        if sine > 1e-6:
            return f"tangent line leaves the curve direction (sine {sine:.3e})"
        return None
    return check


def angle_question(rng, m1, lt1, T1, t_lim, known_defect):
    """C7: a second spiral, moved so that one of its points lands on p."""
    w1 = model_point(lt1, rng.uniform(-t_lim, t_lim), branch(rng))
    z = mobius(m1, w1)
    lt2 = signed(rng, 0.3, 2.0)
    w2 = model_point(lt2, rng.uniform(-1.0, 1.0), branch(rng))
    n2 = random_moebius(rng)
    q = mobius(mobius_inverse(n2), z)
    T2 = mx.apply_map(
        mx.MoebiusMap(*n2) @ mx.MoebiusMap(1.0, q - w2, 0.0, 1.0),
        mx.standard_triple(mx.SlsParameter.finite(lt2)),
    )
    v1 = mobius_derivative(m1, w1) * complex(lt1, TWO_PI) * w1
    v2 = mobius_derivative(n2, q) * complex(lt2, TWO_PI) * w2
    expected = abs(math.remainder(cmath.phase(v2 / v1), math.pi))

    def check(angle):
        if not isinstance(angle, float):
            return f"angle expected, {describe(angle)}"
        if abs(abs(angle) - expected) > 1e-5:
            return f"angle {angle!r}, expected +-{expected!r}"
        return None

    return Op(lambda p=point(z): mx.intersection_angle(T1, T2, p), check, known_defect)


# ---------------------------------------------------------------------------
# query_reuse: few triples, many questions each
# ---------------------------------------------------------------------------

class QueryReuse:
    """16 triples, 200 questions each, asked in a seeded shuffled order.

    Per triple: 80 on-curve and 80 perturbed off-curve ``contains_point``
    (C6), 8 + 8 ``contains_point_oracle``, 8 ``tangent_line_at`` on the
    curve plus 4 refused off it, and 12 ``intersection_angle`` against a
    second spiral moved through the point (C7).  Every eighth triple lies
    beyond the envelope (|lambda_tilde| in [2.5, 8], t in [-4, 4]).
    Inside it, membership points use t in [-2, 2] (C6) and tangent and
    angle points t in [-1, 1] (C7).
    """

    block = 1000
    rate = 4400
    tail_percentile = 99.0
    tail_per_block = True
    TRIPLES = 16

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        ops = []
        for i in range(self.TRIPLES):
            beyond = i % 8 == 7
            lt = signed(rng, *(BEYOND if beyond else ENVELOPE))
            m = random_moebius(rng)
            ops += self._questions(rng, m, lt, moved_triple(m, lt), beyond)
        rng.shuffle(ops)
        self.ops = ops
        self.next = 0

    def _questions(self, rng, m, lt, T, beyond):
        t_member = BEYOND_T if beyond else ENVELOPE_T
        t_local = BEYOND_T if beyond else 1.0

        def curve_point(t_lim):
            return model_point(lt, rng.uniform(-t_lim, t_lim), branch(rng))

        def query_point(on_curve, t_lim):
            w = curve_point(t_lim)
            return point(mobius(m, w if on_curve else w * math.exp(0.05 * lt)))

        ops = []
        for expected in (True, False) * 80:
            ops.append(Op(lambda p=query_point(expected, t_member): mx.contains_point(T, p),
                          expect_member(expected), beyond))
        for expected in (True, False) * 8:
            ops.append(Op(lambda p=query_point(expected, t_member): mx.contains_point_oracle(T, p),
                          expect_member(expected), beyond))
        for _ in range(8):
            w = curve_point(t_local)
            z = mobius(m, w)
            direction = mobius_derivative(m, w) * complex(lt, TWO_PI) * w
            ops.append(Op(lambda p=point(z): mx.tangent_line_at(T, p),
                          tangent_check(z, direction), beyond))
        for _ in range(4):
            ops.append(Op(lambda p=query_point(False, t_local): mx.tangent_line_at(T, p),
                          expect_refusal(mx.errors.PointNotOnCurve), beyond))
        for _ in range(12):
            ops.append(angle_question(rng, m, lt, T, t_local, beyond))
        return ops

    def take(self, count: int) -> list:
        out = []
        while len(out) < count:
            chunk = self.ops[self.next:self.next + count - len(out)]
            out += chunk
            self.next = (self.next + len(chunk)) % len(self.ops)
        return out

    def trace_ops(self) -> list:
        return list(self.ops)


# ---------------------------------------------------------------------------
# query_fresh: every op builds and uses a new triple
# ---------------------------------------------------------------------------

class QueryFresh:
    """A stream of new triples inside the envelope, each used once.

    One op moves a standard triple with ``apply_map`` (which validates
    it), recovers lambda_tilde (C4), round-trips the normal form (C5),
    asks one on-curve ``contains_point`` (C6) and runs one ``equivalent``
    against a stabiliser-shifted copy (true) or a copy with a rotated
    first cycle (false), half each (C9).  Inputs for a block are drawn
    before it is timed.
    """

    block = 1000
    rate = 970
    tail_percentile = 99.0
    tail_per_block = True
    TRACE_OPS = 1000

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = random.Random(seed)

    def take(self, count: int) -> list:
        return [self._op() for _ in range(count)]

    def trace_ops(self) -> list:
        return QueryFresh(self.seed, None).take(self.TRACE_OPS)

    def _op(self) -> Op:
        rng = self.rng
        lt = signed(rng, 0.3, 2.0)
        g = random_moebius(rng)
        G = mx.MoebiusMap(*g)
        T0 = mx.standard_triple(mx.SlsParameter.finite(lt))
        w = model_point(lt, rng.uniform(-ENVELOPE_T, ENVELOPE_T), branch(rng))
        p = point(mobius(g, w))
        same = rng.random() < 0.5
        if same:
            stab = mx.diagonal_flow(complex(lt, TWO_PI), rng.uniform(-2.0, 2.0))
            if rng.random() < 0.5:
                stab = stab @ mx.BRANCH_SWAP
            copy_map, copy_of = G @ stab, T0
        else:
            rot = mx.MoebiusMap(cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05)), 0.0, 0.0, 1.0)
            copy_map = G
            copy_of = mx.LoxodromeTriple(mx.apply_to_cycle(rot, T0.c1), T0.c2, T0.c3, T0.sign)

        def run():
            T = mx.apply_map(G, T0)
            param = mx.lambda_from_triple(T)
            back = mx.apply_map(mx.standard_map(T), T)
            report = mx.contains_point(T, p)
            return param, back, report, mx.equivalent(T, mx.apply_map(copy_map, copy_of))

        def check(outcome):
            if not isinstance(outcome, tuple):
                return describe(outcome)
            param, back, report, equivalent = outcome
            if abs(param.lambda_tilde - lt) > 1e-8:
                return f"lambda_tilde {param.lambda_tilde!r}, expected {lt!r}"
            for got, want in zip((back.c1, back.c2, back.c3), standard_quadruples(lt)):
                residual = projective_residual(got.to_json(), want)
                if residual > 1e-8:
                    return f"normal form off the standard triple by {residual:.3e}"
            if report.member is not True:
                return "on-curve point rejected"
            if equivalent is not same:
                return f"equivalent returned {equivalent}, expected {same}"
            return None

        return Op(run, check)


# ---------------------------------------------------------------------------
# render: one seeded scene at the default RenderConfig
# ---------------------------------------------------------------------------

SVG_NS = "{http://www.w3.org/2000/svg}"


class SvgLedger:
    """Every SVG must parse with ``xml.etree``, hold one group per triple
    and repeat byte for byte across renders of the same scene in a run."""

    def __init__(self):
        self.first: dict[str, bytes] = {}
        self.bytes = 0
        self.checked = 0

    def check(self, key: str, data: bytes, triples: int):
        self.checked += 1
        self.bytes += len(data)
        try:
            root = ET.fromstring(data)
        except ET.ParseError as exc:
            return f"SVG is not well-formed XML: {exc}"
        if data != self.first.setdefault(key, data):
            return "SVG differs from the first render of the same scene in this run"
        groups = sum(1 for g in root.iter(SVG_NS + "g") if g.get("id"))
        if groups != triples:
            return f"SVG has {groups} triple groups, expected {triples}"
        return None

    def digests(self) -> dict:
        return {key: hashlib.sha256(data).hexdigest() for key, data in self.first.items()}


def scene_document(rng: random.Random, triples: int) -> dict:
    """Seeded triples inside the envelope, plus circles, lines and points."""
    objects = []
    for i in range(triples):
        m = random_moebius(rng)
        T = moved_triple(m, signed(rng, *ENVELOPE))
        objects.append({"id": f"T{i}", "kind": "triple", "data": T.to_json()})

    def xy():
        return [rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)]

    for i in range(3):
        objects.append({"id": f"C{i}", "kind": "circle",
                        "data": {"center": xy(), "radius": rng.uniform(0.2, 2.0)}})
    for i in range(2):
        objects.append({"id": f"L{i}", "kind": "line", "data": {"p": xy(), "q": xy()}})
    for i in range(3):
        objects.append({"id": f"P{i}", "kind": "point", "data": xy()})
    return {"objects": objects, "bbox": [-4, -4, 4, 4]}


class Render:
    """``render_scene`` of one seeded scene of 4 triples, 3 circles,
    2 lines and 3 points at the default ``RenderConfig``.

    Four triples rather than about ten: a render then takes 0.13-0.2 s
    on a 2-core machine, so an 18-second run holds 88 renders and can
    report p85 with 13 beyond it.  With 8 triples a run would hold half
    as many, enough only for p75, which spread by 26-33% between runs.
    """

    block = 8
    rate = 4.8
    tail_percentile = 85.0  # 88 renders in an 18-second run
    tail_per_block = False
    TRIPLES = 4
    TRACE_OPS = 1

    def __init__(self, seed: int, workdir: Path):
        text = json.dumps(scene_document(random.Random(seed), self.TRIPLES))
        self.scene = mx.parse_scene(json.loads(text))
        self.svg = SvgLedger()
        self.op = Op(lambda: mx.render_scene(self.scene), self._check)

    def _check(self, svg):
        if not isinstance(svg, str):
            return describe(svg)
        return self.svg.check("scene", svg.encode("utf-8"), self.TRIPLES)

    def take(self, count: int) -> list:
        return [self.op] * count

    def trace_ops(self) -> list:
        return [self.op] * self.TRACE_OPS


# ---------------------------------------------------------------------------
# cli: one `python -m moeblox` process per op
# ---------------------------------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    rss_kb: "int | None"  # peak RSS of the child; None when replayed in-process


def json_output(result: CliResult):
    try:
        return json.loads(result.out)
    except ValueError:
        return None


class Cli:
    """Sequential CLI processes cycling through a fixed mix of commands
    on one seeded scene: lambda, member (exit 0 and 1), equiv (exit 0
    and 1), normalize, sample, render --samples 256, a usage error
    (exit 2) and a scene with a non-numeric radius (exit 2 by the CLI
    contract; ROADMAP item 4 reports exit 1 today)."""

    rate = 4.2
    tail_percentile = 75.0  # 80 processes in an 18-second run
    tail_per_block = False

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        lt = signed(rng, 0.3, 2.0)
        g = random_moebius(rng)
        G = mx.MoebiusMap(*g)
        T0 = mx.standard_triple(mx.SlsParameter.finite(lt))
        stab = mx.diagonal_flow(complex(lt, TWO_PI), rng.uniform(-2.0, 2.0))
        rot = mx.MoebiusMap(cmath.exp(1j * rng.uniform(0.05, math.pi - 0.05)), 0.0, 0.0, 1.0)
        rotated = mx.LoxodromeTriple(mx.apply_to_cycle(rot, T0.c1), T0.c2, T0.c3, T0.sign)
        w = model_point(lt, rng.uniform(-ENVELOPE_T, ENVELOPE_T), branch(rng))
        on, off = mobius(g, w), mobius(g, w * math.exp(0.05 * lt))

        doc = scene_document(rng, 2)
        doc["objects"] += [
            {"id": "T", "kind": "triple", "data": mx.apply_map(G, T0).to_json()},
            {"id": "S", "kind": "triple", "data": mx.apply_map(G @ stab, T0).to_json()},
            {"id": "R", "kind": "triple", "data": mx.apply_map(G, rotated).to_json()},
        ]
        bad = {"objects": [{"id": "c", "kind": "circle",
                            "data": {"center": [0, 0], "radius": "abc"}}]}
        workdir = Path(workdir)
        scene, bad_scene, svg = (str(workdir / name) for name in ("scene.json", "bad.json", "out.svg"))
        for path, content in ((scene, doc), (bad_scene, bad)):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(content, handle)
        mx.load_scene(scene)

        self.lt, self.g, self.svg_path = lt, g, svg
        self.svg = SvgLedger()
        self.env = dict(os.environ, PYTHONPATH=str(Path(mx.__file__).resolve().parent.parent))
        self.env.pop("MOEBLOX_TOL", None)
        S = ["--scene", scene]
        self.mix = [
            (["lambda", *S, "--triple", "T", "--json"], 0, self._lambda_ok, False),
            (["member", *S, "--triple", "T", f"--point={on.real!r},{on.imag!r}"], 0,
             self._member_is(True), False),
            (["member", *S, "--triple", "T", f"--point={off.real!r},{off.imag!r}"], 1,
             self._member_is(False), False),
            (["equiv", *S, "--triple-a", "T", "--triple-b", "S"], 0, None, False),
            (["equiv", *S, "--triple-a", "T", "--triple-b", "R"], 1, None, False),
            (["normalize", *S, "--triple", "T", "--json"], 0, self._normal_form_ok, False),
            (["sample", *S, "--triple", "T", "--count", "33", "--json"], 0, self._samples_ok, False),
            (["render", *S, "--out", svg, "--samples", "256"], 0, self._svg_ok, False),
            (["member", *S, "--triple", "T"], 2, None, False),
            (["lambda", "--scene", bad_scene, "--triple", "c"], 2, None, True),
        ]
        self.block = len(self.mix)  # a block runs each command once
        self.next = 0

    # -- running ----------------------------------------------------------

    def spawn(self, args) -> CliResult:
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                env=self.env)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, out.decode("utf-8", "replace"), usage.ru_maxrss)

    def _op(self, argv, code, check_output, known_defect, in_process=False) -> Op:
        if in_process:
            def run():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    status = mx.cli.main(argv)
                return CliResult(status, out.getvalue(), None)
        else:
            def run(args=[sys.executable, "-m", "moeblox", *argv]):
                return self.spawn(args)

        def check(result):
            if not isinstance(result, CliResult):
                return f"{argv[0]}: {describe(result)}"
            if result.code != code:
                return f"{argv[0]}: exit {result.code}, expected {code}"
            return check_output(result) if check_output else None

        return Op(run, check, known_defect)

    def take(self, count: int) -> list:
        out = []
        for _ in range(count):
            out.append(self._op(*self.mix[self.next]))
            self.next = (self.next + 1) % len(self.mix)
        return out

    def trace_ops(self) -> list:
        """The mix replayed through ``moeblox.cli.main`` in this process."""
        import moeblox.cli  # noqa: F401  (the package does not import its CLI)

        return [self._op(*entry, in_process=True) for entry in self.mix]

    # -- output checks ----------------------------------------------------

    def _lambda_ok(self, result):
        data = json_output(result)
        if not isinstance(data, dict) or abs(data.get("lambda_tilde", math.inf) - self.lt) > 1e-8:
            return f"lambda printed {result.out.strip()!r:.80}, expected {self.lt!r}"
        return None

    @staticmethod
    def _member_is(expected: bool):
        def check(result):
            data = json_output(result)
            if not isinstance(data, dict) or data.get("member") is not expected:
                return f"member printed {result.out.strip()!r:.80}"
            return None
        return check

    def _normal_form_ok(self, result):
        data = json_output(result)
        if not isinstance(data, dict) or abs(data.get("lambda_tilde", math.inf) - self.lt) > 1e-8:
            return f"normalize printed {result.out.strip()!r:.80}"
        std = data.get("standard_triple", {})
        for key, want in zip(("c1", "c2", "c3"), standard_quadruples(self.lt)):
            if projective_residual(std.get(key, (0.0, 0.0, 0.0, 1.0)), want) > 1e-8:
                return f"normalize printed standard {key} = {std.get(key)!r}"
        return None

    def _samples_ok(self, result):
        """Printed samples lie on the curve, to within their 6 decimals."""
        data = json_output(result)
        if not isinstance(data, dict) or sorted(data) != ["+", "-"]:
            return f"sample printed {result.out.strip()!r:.80}"
        back = mobius_inverse(self.g)
        for branch in data.values():
            if len(branch) != 33:
                return f"sample printed {len(branch)} points per branch, expected 33"
            for text in branch:
                if text == "inf":
                    continue
                x, y = (float(v) for v in text.split(","))
                z = complex(x, y)
                w = mobius(back, z)
                if w == 0:
                    continue
                rounding = 1e-6 * abs(mobius_derivative(back, z)) / abs(w)
                slack = 4.0 * rounding * (1.0 / abs(self.lt) + 1.0 / TWO_PI) + 1e-9
                if on_model_curve_residual(self.g, self.lt, z) > slack:
                    return f"sampled point {text} is off the curve"
        return None

    def _svg_ok(self, result):
        try:
            with open(self.svg_path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            return f"render wrote no SVG: {exc}"
        return self.svg.check("scene", data, 5)


# ---------------------------------------------------------------------------
# the reference pass of every traced run
# ---------------------------------------------------------------------------

REFERENCE_MAP = (1.0, 2j, 0.5, 1.0)  # ROADMAP's baseline triple: lambda_tilde = 1 moved by it


def reference_ops() -> list:
    """One call of each query, one curve sample and one small scene on
    ROADMAP's reference triple.  The traced run adds them to every
    workload, so that each per-call time is measured on every workload.
    The first op is the ``contains_point`` whose counts ROADMAP quotes."""
    m, lt = REFERENCE_MAP, 1.0
    T = moved_triple(m, lt)
    w = model_point(lt, 0.3, 1.0)
    z = mobius(m, w)
    p = point(z)
    copy = mx.apply_map(mx.MoebiusMap(*m) @ mx.diagonal_flow(complex(lt, TWO_PI), 0.5),
                        mx.standard_triple(mx.SlsParameter.finite(lt)))
    doc = {"objects": [
        {"id": "T", "kind": "triple", "data": T.to_json()},
        {"id": "C", "kind": "circle", "data": {"center": [0.5, -0.5], "radius": 1.0}},
        {"id": "P", "kind": "point", "data": [z.real, z.imag]},
    ]}
    svg = SvgLedger()

    def samples_on_curve(points):
        if not isinstance(points, list) or len(points) != 512:
            return f"512 samples expected, {describe(points)}"
        for q in points:
            if not q.is_infinity and on_model_curve_residual(m, lt, q.as_complex()) > 1e-8:
                return f"sample {q.format()} is off the curve"
        return None

    def rendered(text):
        if not isinstance(text, str):
            return describe(text)
        return svg.check("reference", text.encode("utf-8"), 1)

    return [
        Op(lambda: mx.contains_point(T, p), expect_member(True)),
        Op(lambda: mx.contains_point_oracle(T, p), expect_member(True)),
        Op(lambda: mx.tangent_line_at(T, p),
           tangent_check(z, mobius_derivative(m, w) * complex(lt, TWO_PI) * w)),
        angle_question(random.Random(0), m, lt, T, 1.0, False),
        Op(lambda: mx.equivalent(T, copy), expect_member(True)),
        Op(lambda: mx.sample_curve(T, -1.0, 1.0, 256, "both"), samples_on_curve),
        Op(lambda: mx.render_scene(mx.parse_scene(doc), mx.RenderConfig(samples=256)), rendered),
    ]


WORKLOADS = {
    "query_reuse": QueryReuse,
    "query_fresh": QueryFresh,
    "render": Render,
    "cli": Cli,
}
