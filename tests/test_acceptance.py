"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per criterion (each test also prints its own PASS line).
"""

import cmath
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import moeblox as mx

from conftest import (
    on_curve_point,
    projective_residual,
    random_cycle,
    random_moebius,
    random_sl2,
)

TWO_PI = 2 * math.pi
pt = mx.ExtendedPoint.from_complex


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_c01_product_invariance():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(1000):
        C, Cp = random_cycle(rng), random_cycle(rng)
        M = random_sl2(rng, -5.0, 5.0)
        moved = mx.product(mx.apply_to_cycle(M, C), mx.apply_to_cycle(M, Cp))
        scale = max(1.0, abs(mx.product(C, Cp)), C.scale() * Cp.scale())
        assert abs(moved - mx.product(C, Cp)) <= 1e-9 * scale
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"invariance suite took {elapsed:.2f}s"
    _report("C1 product invariance (1000 maps, <1s)")


def test_c02_structural_identities():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        C = random_cycle(rng)
        (a11, a12), (a21, a22) = C.matrix()
        det = a11 * a22 - a12 * a21
        assert det.imag == 0.0
        assert abs(mx.self_product(C) - (-2.0 * det.real)) <= 1e-12

        center = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        radius = rng.uniform(0.1, 5.0)
        circle = mx.from_circle(center, radius)
        _, r = mx.center_radius(circle)
        assert abs(r * r - mx.self_product(circle) / 2.0) <= 1e-12
    _report("C2 structural identities (det pairing, radius squared)")


def test_c03_normalized_product_geometry():
    rng = np.random.default_rng(103)
    for _ in range(500):
        phi1, phi2 = rng.uniform(0, TWO_PI, 2)
        if abs(math.remainder(phi1 - phi2, math.pi)) < 1e-6:
            continue  # coincident lines span no pencil
        L1 = mx.from_line(0, cmath.exp(1j * phi1))
        L2 = mx.from_line(0, cmath.exp(1j * phi2))
        got = mx.normalized_product(L1, L2)
        # equality holds up to the documented canonical sign convention
        assert abs(abs(got) - abs(math.cos(phi2 - phi1))) <= 1e-9
    for _ in range(500):
        center = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        u1, u2 = rng.uniform(-3, 3, 2)
        if abs(u1 - u2) < 1e-6:
            continue
        C1 = mx.from_circle(center, math.exp(u1))
        C2 = mx.from_circle(center, math.exp(u2))
        got = mx.normalized_product(C1, C2)
        assert abs(got - math.cosh(u2 - u1)) <= 1e-9 * max(1.0, math.cosh(u2 - u1))
    _report("C3 normalized product: cos for crossing lines, cosh for concentric")


def test_c04_parameter_recovery():
    rng = np.random.default_rng(104)
    for lt in (0.25, 0.5, 1.0, 2.0, 5.0):
        for sign in (1, -1):
            T0 = mx.standard_triple(mx.SlsParameter.finite(sign * lt))
            for _ in range(50):
                T = mx.apply_map(random_moebius(rng), T0)
                got = mx.lambda_from_triple(T)
                assert abs(abs(got.lambda_tilde) - lt) <= 1e-8
                assert got.lambda_tilde * sign > 0
    _report("C4 parameter recovery across 500 random maps")


def test_c05_normal_form_round_trip():
    rng = np.random.default_rng(105)
    cases = 0
    for lt in (0.25, 0.5, 1.0, 2.0, 5.0):
        for sign in (1, -1):
            T0 = mx.standard_triple(mx.SlsParameter.finite(sign * lt))
            for _ in range(50):
                T = mx.apply_map(random_moebius(rng), T0)
                M = mx.standard_map(T)
                back = mx.apply_map(M, T)
                ref = mx.standard_triple(mx.lambda_from_triple(T))
                for a, b in ((back.c1, ref.c1), (back.c2, ref.c2), (back.c3, ref.c3)):
                    assert projective_residual(a, b) <= 1e-8
                if sign == -1:
                    _, r = mx.center_radius(mx.canonicalize(back.c3))
                    assert abs(r - math.exp(-lt)) <= 1e-8 * max(1.0, math.exp(-lt))
                cases += 1
    assert cases == 500
    _report("C5 normal-form round trip on 500 transformed triples")


def test_c06_membership_agreement():
    rng = np.random.default_rng(106)
    start = time.monotonic()
    for _ in range(1000):
        lt = rng.uniform(0.25, 2.5) * (1 if rng.uniform() < 0.5 else -1)
        M = random_moebius(rng)
        T = mx.apply_map(M, mx.standard_triple(mx.SlsParameter.finite(lt)))
        t = rng.uniform(-2, 2)
        branch = 1.0 if rng.uniform() < 0.5 else -1.0
        w = branch * cmath.exp((lt + TWO_PI * 1j) * t)

        on = mx.apply_to_point(M, pt(w))
        assert mx.contains_point(T, on).member, "procedure rejected an on-curve point"
        assert mx.contains_point_oracle(T, on), "oracle rejected an on-curve point"

        off = mx.apply_to_point(M, pt(w * math.exp(0.05 * lt)))
        assert not mx.contains_point(T, off).member, "procedure accepted a perturbed point"
        assert not mx.contains_point_oracle(T, off), "oracle accepted a perturbed point"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"membership suite took {elapsed:.2f}s"
    _report("C6 membership agreement: 1000 accepts + 1000 rejects (<10s)")


def _fd_curve_direction(T, p, h=1e-6):
    """Finite-difference tangent from the curve sampler."""
    S = mx.standard_map(T)
    w = mx.apply_to_point(S, p).as_complex()
    lam = mx.lambda_from_triple(T)
    t0 = math.log(abs(w)) / lam.lambda_tilde
    plus = cmath.exp(lam.rate * t0)
    branch = "+" if abs(plus - w) <= abs(plus + w) else "-"
    samples = mx.sample_curve(T, t0 - h, t0 + h, 3, branch)
    return (samples[2].as_complex() - samples[0].as_complex()) / (2 * h)


def test_c07_intersection_angle():
    rng = np.random.default_rng(107)
    checked = 0
    while checked < 200:
        lt1 = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        lt2 = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        M1 = random_moebius(rng)
        p, _, _ = on_curve_point(rng, lt1, M1, t_range=(-1, 1))
        if p.is_infinity:
            continue
        T1 = mx.apply_map(M1, mx.standard_triple(mx.SlsParameter.finite(lt1)))
        t2 = rng.uniform(-1, 1)
        b2 = 1 if rng.uniform() < 0.5 else -1
        w2 = b2 * cmath.exp((lt2 + TWO_PI * 1j) * t2)
        N2 = random_moebius(rng)
        q = mx.apply_to_point(N2.inverse(), p).as_complex()
        T2 = mx.apply_map(N2 @ mx.MoebiusMap(1, q - w2, 0, 1),
                          mx.standard_triple(mx.SlsParameter.finite(lt2)))
        analytic = mx.intersection_angle(T1, T2, p)
        v1 = _fd_curve_direction(T1, p)
        v2 = _fd_curve_direction(T2, p)
        numeric = math.remainder(cmath.phase(v2) - cmath.phase(v1), math.pi)
        assert abs(abs(analytic) - abs(numeric)) <= 1e-5
        checked += 1

    # frozen reference: arctan(1 / 2 pi) for the circle-versus-spiral case
    angle = mx.intersection_angle(
        mx.standard_triple(mx.SlsParameter.finite(0.0)),
        mx.standard_triple(mx.SlsParameter.finite(1.0)),
        pt(1),
    )
    assert abs(angle - math.atan(1 / TWO_PI)) <= 1e-9
    assert abs(angle - 0.15783119) <= 1e-6
    _report("C7 intersection angle vs finite differences (200 pairs)")


def test_c08_tangency():
    for lt in (0.5, 1.0, 2.0):
        T = mx.standard_triple(mx.SlsParameter.finite(lt))
        line = mx.Cycle(0, -math.pi, lt / 2, -TWO_PI)
        assert mx.tangent_check(T, line, pt(1)), f"analytic tangent rejected at {lt}"
        direction = complex(-line.n, line.l) * cmath.exp(0.01j)
        rotated = mx.from_line(1, 1 + direction)
        assert not mx.tangent_check(T, rotated, pt(1)), f"rotated line accepted at {lt}"
    _report("C8 tangency: analytic lines pass, 0.01 rad rotations fail")


def test_c09_equivalence():
    rng = np.random.default_rng(109)
    accepted = rejected = 0
    for _ in range(500):
        lt = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
        lam = lt + TWO_PI * 1j
        T0 = mx.standard_triple(mx.SlsParameter.finite(lt))
        stab = mx.diagonal_flow(lam, rng.uniform(-2, 2))
        if rng.uniform() < 0.5:
            stab = stab @ mx.BRANCH_SWAP
        G = random_moebius(rng)
        A = mx.apply_map(G, T0)
        B = mx.apply_map(G @ stab, T0)
        assert mx.equivalent(A, B), "stabiliser-shifted pair rejected"
        accepted += 1
    for i in range(500):
        lt = rng.uniform(0.3, 2.0)
        T0 = mx.standard_triple(mx.SlsParameter.finite(lt))
        G = random_moebius(rng)
        if i % 2 == 0:
            other = mx.standard_triple(mx.SlsParameter.finite(lt + rng.uniform(0.05, 1.0)))
            pair = (mx.apply_map(G, T0), mx.apply_map(G, other))
        else:
            phi = rng.uniform(0.05, math.pi - 0.05)
            rot = mx.MoebiusMap(cmath.exp(1j * phi), 0, 0, 1)
            shifted = mx.LoxodromeTriple(
                mx.apply_to_cycle(rot, T0.c1), T0.c2, T0.c3, T0.sign
            )
            pair = (mx.apply_map(G, T0), mx.apply_map(G, shifted))
        assert not mx.equivalent(*pair), "distinct curves accepted"
        rejected += 1
    assert accepted == rejected == 500
    _report("C9 equivalence: 500 accepts, 500 rejects")


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli(args, cwd):
    import os

    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "moeblox", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


def test_c10_cli_contract(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(
        json.dumps(
            {
                "objects": [
                    {
                        "id": "T",
                        "kind": "triple",
                        "data": {
                            "c1": [0, 0, 1, 0],
                            "c2": [1, 0, 0, -1],
                            "c3": [1, 0, 0, -math.e**2],
                            "sign": 1,
                        },
                    }
                ]
            }
        )
    )
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (first, second):
        result = _cli(
            ["render", "--scene", str(scene), "--out", str(out), "--samples", "256"],
            cwd=tmp_path,
        )
        assert result.returncode == 0, result.stderr
    assert first.read_bytes() == second.read_bytes(), "render not byte-deterministic"

    member = _cli(["member", "--scene", str(scene), "--triple", "T", "--point", "1,0"], tmp_path)
    assert member.returncode == 0
    off = _cli(
        ["member", "--scene", str(scene), "--triple", "T", "--point", "0,1.105171"], tmp_path
    )
    assert off.returncode == 1
    bad = _cli(["member", "--scene", str(scene), "--triple", "T", "--point", "bogus"], tmp_path)
    assert bad.returncode == 2
    _report("C10 CLI: byte-deterministic render, member exit codes 0/1/2")
