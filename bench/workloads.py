"""The three benchmark workloads.

Each workload is built from a seed, sends its requests through the public
API of cakecalc (passed in as the package object `cc`, so that calls go
through module attributes and the traced run sees them), and checks every
answer against the oracles in oracles.py.

Request i is generated from its own Random(seed, i), so any prefix of the
request stream is the same in every run with that seed.  The parameters
that set a request's cost (protocol and player count, valuation kind and
tolerance, iterate depth) are dealt out in shuffled cycles over a fixed
grid, so that every seed sees the same mix and only the details differ.
"""

from __future__ import annotations

import json
import random
import shutil
from fractions import Fraction
from io import StringIO
from math import lcm
from pathlib import Path

import oracles as orc

ZERO = Fraction(0)
ONE = Fraction(1)


def rng_for(seed: int, *tags) -> random.Random:
    return random.Random("/".join(str(t) for t in (seed, *tags)))


class Stratified:
    """Request i gets grid[perm_c[i % len(grid)]], with a fresh seeded
    permutation perm_c for every pass c over the grid.  Warm-up requests
    (i < 0) take the grid in its written order, so that set-up does the
    same work for every seed."""

    def __init__(self, seed: int, grid: list):
        self.seed = seed
        self.grid = grid
        self._order: tuple[int, list] = (-1, [])

    def __call__(self, i: int):
        if i < 0:
            return self.grid[(-1 - i) % len(self.grid)]
        c, k = divmod(i, len(self.grid))
        if self._order[0] != c:
            order = list(self.grid)
            rng_for(self.seed, "order", c).shuffle(order)
            self._order = (c, order)
        return self._order[1][k]


def breakpoints(rng: random.Random, parts: int) -> list[Fraction]:
    """0 = b_0 < b_1 < ... < b_parts = 1 with small denominators."""
    den = rng.randint(parts, 4 * parts)
    cuts = sorted(rng.sample(range(1, den), parts - 1))
    return [ZERO] + [Fraction(c, den) for c in cuts] + [ONE]


def random_set(rng: random.Random, parts: int, den: int) -> list[tuple]:
    """A canonical set of `parts` disjoint, non-touching intervals."""
    points = sorted(rng.sample(range(den + 1), 2 * parts))
    return [
        (Fraction(points[2 * k], den), Fraction(points[2 * k + 1], den),
         rng.random() < 0.5, rng.random() < 0.5)
        for k in range(parts)
    ]


class Workload:
    """Interface: make(i) -> request; run(request) -> output (the timed
    part); check(request, output) -> (ok, values returned, exact values)."""

    name = ""
    traced_requests = 0
    seed = 0

    def request_rng(self, i: int) -> random.Random:
        """Random source of request i; the warm-up requests (i < 0) are the
        same for every seed."""
        return rng_for(self.seed if i >= 0 else "warm-up", self.name, i)

    def close(self) -> None:
        pass


# --- fair_division ------------------------------------------------------------


class FairDivision(Workload):
    """`cakecalc --json protocol ...` and `cakecalc --json slice ...` through
    cli.run in-process, on seeded box and density JSON configs."""

    name = "fair_division"
    traced_requests = 120
    POOL = 42  # configs 2j (density form) and 2j+1 (box form) have 4 + j pieces
    PROTOCOLS = ("last_diminisher", "moving_knife")
    # (k, pieces) of the slice requests: eps = 1/k on a config of that many
    # pieces.  A slice makes k inversions of a profile whose scan grows with
    # the square of the pieces, so fixing the pairs keeps every seed's
    # slices about equally costly.
    SLICES = ((50, 24), (80, 20), (110, 16), (140, 12), (170, 8), (200, 4))
    TOL = Fraction(1, 2**40)  # the CLI default

    def __init__(self, cc, seed: int, workdir: Path):
        self.cc = cc
        self.seed = seed
        self.dir = Path(workdir) / f"configs-{self.name}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        rng = rng_for(seed, "configs")
        self.paths: list[str] = []
        self.density: list[list[tuple]] = []
        for k in range(self.POOL):
            parts = 4 + k // 2
            data, dens = (self._box if k % 2 else self._density)(rng, parts)
            path = self.dir / f"player{k:02d}.json"
            path.write_text(json.dumps(data))
            cc.load_valuation(path)  # every config must load
            self.paths.append(str(path))
            self.density.append(dens)
        # one pass: 2 cut_and_choose, 2 protocols x 2..12 players, 6 slices
        grid = [("cut_and_choose", 2)] * 2
        grid += [(p, n) for p in self.PROTOCOLS for n in range(2, 13)]
        grid += [("slice", pair) for pair in self.SLICES]
        self.plan = Stratified(seed, grid)

    @staticmethod
    def _box(rng, parts):
        bp = breakpoints(rng, parts)
        counts = [rng.randint(0, 9) for _ in range(parts)]
        counts[rng.randrange(parts)] += 1
        total = sum(counts)
        pieces, dens = [], []
        for k in range(parts):
            lo, hi = bp[k], bp[k + 1]
            last = k == parts - 1
            pieces.append({"support": f"[{lo},{hi}{']' if last else ')'}",
                           "boxes": counts[k]})
            dens.append((lo, hi, Fraction(counts[k], total) / (hi - lo)))
        return {"density_pieces": pieces}, dens

    @staticmethod
    def _density(rng, parts):
        bp = breakpoints(rng, parts)
        raw = [rng.randint(0, 9) for _ in range(parts)]
        raw[rng.randrange(parts)] += 1
        mass = sum(r * (bp[k + 1] - bp[k]) for k, r in enumerate(raw))
        pieces, dens = [], []
        for k in range(parts):
            lo, hi = bp[k], bp[k + 1]
            rate = raw[k] / mass
            pieces.append({"support": f"{'[' if k == 0 else '('}{lo},{hi}]",
                           "density": str(rate)})
            dens.append((lo, hi, rate))
        return {"density_pieces": pieces}, dens

    def make(self, i: int):
        rng = self.request_rng(i)
        kind, n = self.plan(i)
        if kind == "slice":
            k, parts = n
            cfg = 2 * (parts - 4) + rng.randrange(2)  # the density or the box config
            eps = Fraction(1, k)
            argv = ["--json", "slice", self.paths[cfg], str(eps)]
            return kind, [cfg], eps, argv
        players = rng.sample(range(self.POOL), n)
        argv = ["--json", "protocol", kind, *(self.paths[k] for k in players)]
        return kind, players, None, argv

    def run(self, req):
        out = StringIO()
        code = self.cc.cli.run(req[3], out=out)
        return code, out.getvalue()

    def check(self, req, output):
        kind, players, eps, _ = req
        code, text = output
        if code != 0:
            return False, 0, 0
        report = json.loads(text)
        if kind == "slice":
            return self._check_slice(players[0], eps, report)
        return self._check_protocol(kind, players, report)

    def _check_slice(self, k, eps, report):
        pieces = [orc.parse_set(s) for s in report["pieces"]]
        values = report["values"]
        exact = sum(isinstance(v, str) for v in values)
        ok = (
            report["command"] == "slice"
            and orc.disjoint_cover(pieces)
            and len(pieces) == -(-1 // eps)  # atom-free: all but the last are worth exactly eps
            and exact == len(values) == len(pieces)
        )
        for piece, val in zip(pieces, values):
            truth = orc.density_value(self.density[k], piece)
            ok = ok and isinstance(val, str) and Fraction(val) == truth and ZERO < truth <= eps
        return ok, len(values), exact

    def _check_protocol(self, kind, players, report):
        n = len(players)
        ids = [str(i) for i in range(n)]
        if report["protocol"] != kind or sorted(report["pieces"]) != sorted(ids):
            return False, 0, 0
        pieces = {i: orc.parse_set(report["pieces"][i]) for i in ids}
        ok = orc.disjoint_cover(list(pieces.values()))
        truth = {}
        total = exact = 0
        for i, k in zip(ids, players):
            for j in ids:
                got = report["values"][i][j]
                total += 1
                truth[i, j] = orc.density_value(self.density[k], pieces[j])
                if isinstance(got, str):
                    exact += 1
                    ok = ok and Fraction(got) == truth[i, j]
                else:
                    ok = ok and Fraction(got["lo"]) <= truth[i, j] <= Fraction(got["hi"])
        share = Fraction(1, n)
        proportional = all(truth[i, i] >= share for i in ids)
        envy_free = not any(
            truth[i, j] > truth[i, i] + self.TOL for i in ids for j in ids if i != j
        )
        ok = (
            ok
            and proportional
            and report["proportional"] is True
            and report["envy_free"] is envy_free
            and (envy_free or kind != "cut_and_choose")
        )
        return ok, total, exact

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# --- singular -----------------------------------------------------------------


class Singular(Workload):
    """Sessions of cdf / evaluate / cut / slice_valuation on atom-free
    valuations with a Cantor component."""

    name = "singular"
    traced_requests = 120
    RATIOS = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
    TOLS = (Fraction(1, 2**12), Fraction(1, 2**16), Fraction(1, 2**20))
    EPSILONS = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
    # Cantor (support, weight) of the density + Cantor mixes, one mix each
    # per ratio; fixed so that every seed does about the same work
    MIX_SHAPES = (
        (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(1), Fraction(3, 4)),
        (Fraction(0), Fraction(1), Fraction(1, 4)),
        (Fraction(3, 8), Fraction(7, 8), Fraction(1, 2)),
    )
    ORACLE_SHARPNESS = 2**10  # oracle brackets are this much narrower than tol

    def __init__(self, cc, seed: int, workdir: Path):
        self.cc = cc
        self.seed = seed
        rng = rng_for(seed, "valuations")
        self.valuations = []  # (library valuation, density, cantor parts)
        for p in self.RATIOS:
            self.valuations.append((cc.cantor_valuation(p), [(ZERO, ONE, ZERO)],
                                    [(ZERO, ONE, p, ONE)]))
            for shape in self.MIX_SHAPES:
                self.valuations.append(self._mix(rng, p, *shape))
        grid = [(k, tol) for k in range(len(self.valuations)) for tol in self.TOLS]
        self.plan = Stratified(seed, grid)

    def _mix(self, rng, p, s, t, w):
        cc = self.cc
        parts = rng.randint(2, 4)
        bp = breakpoints(rng, parts)
        raw = [rng.randint(0, 5) for _ in range(parts)]
        raw[rng.randrange(parts)] += 1
        mass = sum(r * (bp[k + 1] - bp[k]) for k, r in enumerate(raw))
        density = [(bp[k], bp[k + 1], r * (1 - w) / mass) for k, r in enumerate(raw)]
        v = cc.make_valuation(
            density=[(cc.Interval(lo, hi, k == 0, True), rate)
                     for k, (lo, hi, rate) in enumerate(density)],
            cantor_parts=[cc.CantorComponent(cc.Interval(s, t, True, True), p, w)],
        )
        return v, density, [(s, t, p, w)]

    def make(self, i: int):
        rng = self.request_rng(i)
        k, tol = self.plan(i)
        _, density, parts = self.valuations[k]
        fine = tol / self.ORACLE_SHARPNESS
        points = []
        for _ in range(4):
            den = rng.randint(2, 60)
            points.append((Fraction(rng.randint(0, den), den),
                           rng.choice(("at", "left_limit"))))
        sets = [random_set(rng, rng.randint(1, 3), rng.randint(8, 60)) for _ in range(3)]
        cuts = []
        n_cuts = rng.randint(1, 2)
        while len(cuts) < n_cuts:
            a = random_set(rng, rng.randint(1, 2), rng.randint(4, 30))
            if orc.value_bracket(density, parts, a, fine)[0] > Fraction(1, 8):
                cuts.append((a, Fraction(rng.randint(1, 11), 12)))
        eps = rng.choice(self.EPSILONS)
        return k, tol, points, sets, cuts, eps

    def run(self, req):
        cc = self.cc
        k, tol, points, sets, cuts, eps = req
        v = self.valuations[k][0]
        return (
            [cc.cdf(v, x, side, tol) for x, side in points],
            [cc.evaluate(v, cc.interval_set(*a), tol) for a in sets],
            [cc.cut(v, cc.interval_set(*a), alpha, tol) for a, alpha in cuts],
            cc.slice_valuation(v, eps, tol),
        )

    def check(self, req, output):
        k, tol, points, sets, cuts, eps = req
        _, density, parts = self.valuations[k]
        fine = tol / self.ORACLE_SHARPNESS
        cdfs, values, pieces, slices = output
        returned = cdfs + values
        ok = True
        for (x, _), got in zip(points, cdfs):
            ok = ok and _agrees(got, orc.cdf_bracket(density, parts, x, fine), tol)
        for a, got in zip(sets, values):
            ok = ok and _agrees(got, orc.value_bracket(density, parts, a, fine), tol)
        for (a, alpha), piece in zip(cuts, pieces):
            comps = orc.components(piece)
            c = comps[-1][1] if comps else ZERO
            ok = ok and comps == orc.intersect(a, [(ZERO, c, True, True)])
            plo, phi = orc.value_bracket(density, parts, comps, fine)
            alo, ahi = orc.value_bracket(density, parts, a, fine)
            ok = ok and max(phi - alpha * alo, alpha * ahi - plo) <= tol
        # with a singular part the slicer promises pieces worth at most
        # eps + tol; a trailing piece may be worth 0 (within tol of positive)
        slice_comps = [orc.components(s) for s in slices]
        ok = ok and orc.disjoint_cover(slice_comps)
        for comps in slice_comps:
            lo, hi = orc.value_bracket(density, parts, comps, fine)
            ok = ok and lo <= eps + tol and hi >= 0
        exact = sum(1 for r in returned if r.lo == r.hi)
        return ok, len(returned), exact


def _agrees(got, oracle, tol) -> bool:
    """Library bracket within tol, and consistent with the oracle's: it must
    contain an exact oracle value, and meet a (much narrower) oracle bracket."""
    olo, ohi = oracle
    if got.hi - got.lo > tol or got.lo > got.hi:
        return False
    return got.lo <= ohi and olo <= got.hi


# --- iterates -----------------------------------------------------------------


class Iterates(Workload):
    """Build A_n(p), evaluate it, complement it, intersect it with and
    subtract a second iterate A_m(q), probe membership and length."""

    name = "iterates"
    traced_requests = 60
    RATIOS = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
    DEPTHS = range(6, 13)
    # intervals.intersect rescans the second operand from its start for every
    # component of the first, so it costs about |A_n| * |A_m| / 2 steps.
    # n + m = PRODUCT holds that product at 2^12 whatever n is: intersect,
    # direct and inside difference, is then about half of the intervals self
    # time, mostly rescans (less at n = 12, where building, evaluating and
    # scanning 4096 components dominate), and a request stays under 0.3 s.
    # A_12 x A_12 would take tens of seconds.
    PRODUCT = 12
    BOX_PIECES = (2, 3, 4)  # one box valuation each; evaluate scans the set once per piece
    PROBES = 4

    def __init__(self, cc, seed: int, workdir: Path):
        self.cc = cc
        self.seed = seed
        rng = rng_for(seed, "valuations")
        self.uniform = cc.uniform_valuation()
        self.boxes = []  # (library valuation, density)
        for parts in self.BOX_PIECES:
            bp = breakpoints(rng, parts)
            counts = [rng.randint(0, 9) for _ in range(parts)]
            counts[rng.randrange(parts)] += 1
            total = sum(counts)
            v = cc.make_box_valuation(
                [(cc.Interval(bp[k], bp[k + 1], k == 0, True), counts[k]) for k in range(parts)]
            )
            dens = [(bp[k], bp[k + 1], Fraction(counts[k], total) / (bp[k + 1] - bp[k]))
                    for k in range(parts)]
            self.boxes.append((v, dens))
        self.plan = Stratified(seed, list(self.DEPTHS))

    def make(self, i: int):
        rng = self.request_rng(i)
        n = self.plan(i)
        p = rng.choice(self.RATIOS)
        q = rng.choice(self.RATIOS + (Fraction(1, 6),))
        m = self.PRODUCT - n
        box = rng.randrange(len(self.boxes))
        a = orc.iterate_ints(p, n)
        den = orc.iterate_scale(p, n)
        probes = []
        for _ in range(self.PROBES // 2):
            d = rng.randint(2, 200)
            probes.append(Fraction(rng.randint(0, d), d))
            j = rng.randrange(len(a))
            gap = a[j][1] + 1 if j + 1 < len(a) else a[j][1]
            probes.append(Fraction(rng.choice((a[j][0], a[j][1], gap)), den))
        return n, p, m, q, box, probes, a, den

    def run(self, req):
        cc = self.cc
        n, p, m, q, box, probes, _, _ = req
        it = cc.cantor_iterate(p, n)
        a = it.set
        ev_uniform = cc.evaluate(self.uniform, a)
        ev_box = cc.evaluate(self.boxes[box][0], a)
        removed = cc.removed_mass(p, n)
        comp = cc.complement(a)
        b = cc.cantor_iterate(q, m).set
        inter = cc.intersect(a, b)
        diff = cc.difference(a, b)
        member = [cc.contains(a, x) for x in probes]
        length = cc.total_length(a)
        return it, ev_uniform, ev_box, removed, comp, inter, diff, member, length

    def check(self, req, output):
        n, p, m, q, box, probes, a, den = req
        it, ev_uniform, ev_box, removed, comp, inter, diff, member, length = output
        size = orc.iterate_length(p, n)
        returned = (ev_uniform, ev_box)
        exact = sum(1 for r in returned if r.lo == r.hi)
        b = orc.iterate_ints(q, m)
        den_b = orc.iterate_scale(q, m)
        den_ab = lcm(den, den_b)
        a_ab = orc.rescale(a, den_ab // den)
        b_ab = orc.rescale(b, den_ab // den_b)
        ok = (
            it.p == p and it.n == n
            and sum(hi - lo for lo, hi, _, _ in a) == size * den  # oracle self-check
            and orc.matches_scaled(it.set.components, a, den)
            and ev_uniform.lo == ev_uniform.hi == size
            and ev_box.lo == ev_box.hi == orc.density_value_scaled(self.boxes[box][1], a, den)
            and removed == orc.removed_length(p, n)
            and length == size
            and orc.matches_scaled(comp.components, orc.complement(a, 0, den), den)
            and orc.matches_scaled(inter.components, orc.intersect(a_ab, b_ab), den_ab)
            and orc.matches_scaled(
                diff.components, orc.intersect(a_ab, orc.complement(b_ab, 0, den_ab)), den_ab)
            and member == [orc.member_scaled(a, den, x) for x in probes]
        )
        return ok, len(returned), exact


WORKLOADS = {w.name: w for w in (FairDivision, Singular, Iterates)}
