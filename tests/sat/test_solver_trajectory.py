"""Pinned search trajectories of the CDCL solver.

Every instance replays a fixed clause and assumption stream and records,
after each ``solve`` call, ``(result, num_propagations, num_conflicts,
num_decisions, model digest)``.  The expected values were recorded from
the reference implementation, so any rewrite of the solver's hot loops
must keep the watch-list order, the clause-literal swap order, the
VSIDS tie-breaking and the restart/learning schedule exactly: a changed
counter means a changed search, even when the verdicts agree.

To re-record after an *intended* trajectory change, run this file as a
script (``PYTHONPATH=src python tests/sat/test_solver_trajectory.py``)
and paste its output over ``EXPECTED``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.sat import DEFAULT_CONFIGS, Solver, SolverConfig

Record = Tuple[Optional[bool], int, int, int, Optional[str]]


def _record(solver: Solver, result: Optional[bool]) -> Record:
    digest = None
    if result is True:
        bits = "".join("1" if v else "0" for v in solver.model())
        digest = hashlib.sha256(bits.encode()).hexdigest()[:16]
    return (
        result,
        solver.num_propagations,
        solver.num_conflicts,
        solver.num_decisions,
        digest,
    )


def _pigeonhole(solver: Solver, pigeons: int, holes: int) -> None:
    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    for p in range(pigeons):
        solver.add_clause([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([-var(p1, h), -var(p2, h)])


def _random_3sat(
    solver: Solver, rng: random.Random, nvars: int, nclauses: int
) -> None:
    for _ in range(nclauses):
        vs = rng.sample(range(1, nvars + 1), 3)
        solver.add_clause([v if rng.random() < 0.5 else -v for v in vs])


def _assumptions(rng: random.Random, nvars: int, count: int) -> List[int]:
    vs = rng.sample(range(1, nvars + 1), count)
    return [v if rng.random() < 0.5 else -v for v in vs]


def _php_unsat() -> List[Record]:
    s = Solver()
    _pigeonhole(s, 5, 4)
    return [_record(s, s.solve())]


def _php_conflict_budget() -> List[Record]:
    s = Solver()
    _pigeonhole(s, 6, 5)
    out = []
    for budget in (5, 20, None):
        out.append(_record(s, s.solve(max_conflicts=budget)))
    return out


def _php_propagation_budget() -> List[Record]:
    s = Solver()
    _pigeonhole(s, 7, 6)
    out = []
    for budget in (300, 2000):
        out.append(_record(s, s.solve(max_propagations=budget)))
    return out


def _assumption_stream(config: Optional[SolverConfig]) -> List[Record]:
    rng = random.Random(1234)
    nvars = 90
    s = Solver(config)
    _random_3sat(s, rng, nvars, 340)
    out = []
    for call in range(14):
        assumptions = _assumptions(rng, nvars, 2 + 3 * (call % 4))
        budget = 40 if call % 3 == 2 else None
        out.append(_record(s, s.solve(assumptions, max_conflicts=budget)))
    return out


def _keep_prefix_stream(config: Optional[SolverConfig]) -> List[Record]:
    rng = random.Random(99)
    nvars = 80
    s = Solver(config)
    _random_3sat(s, rng, nvars, 310)
    head = -7
    out = []
    for call in range(16):
        if call % 5 == 4:
            s.reset()  # clauses may only be added at level 0
            _random_3sat(s, rng, nvars, 3)
        assumptions = [head] + _assumptions(rng, nvars, 2 + call % 3)
        if head in assumptions[1:] or -head in assumptions[1:]:
            assumptions = [head] + [
                a for a in assumptions[1:] if abs(a) != abs(head)
            ]
        budget = 25 if call % 4 == 3 else None
        result = s.solve(assumptions, max_conflicts=budget, keep_prefix=1)
        out.append(_record(s, result))
    return out


def _hard_random(config: Optional[SolverConfig] = None) -> List[Record]:
    rng = random.Random(7)
    s = Solver(config)
    _random_3sat(s, rng, 110, 462)
    return [_record(s, s.solve())]


def _unsat_random(config: Optional[SolverConfig]) -> List[Record]:
    rng = random.Random(5)
    s = Solver(config)
    _random_3sat(s, rng, 60, 300)
    return [_record(s, s.solve())]


CHURN = SolverConfig(name="churn", learned_limit=16, restart_base=4)
"""Frequent restarts and a tiny clause DB, so _reduce_db runs often."""


INSTANCES: Dict[str, Callable[[], List[Record]]] = {
    "php-5-4": _php_unsat,
    "php-6-5-conflict-budget": _php_conflict_budget,
    "php-7-6-propagation-budget": _php_propagation_budget,
    "random-110-hard": _hard_random,
    "assumptions-default": lambda: _assumption_stream(None),
    "keep-prefix-default": lambda: _keep_prefix_stream(None),
    "random-110-hard-churn": lambda: _hard_random(CHURN),
    "unsat-60-default": lambda: _unsat_random(None),
    "unsat-60-churn": lambda: _unsat_random(CHURN),
    "assumptions-churn": lambda: _assumption_stream(CHURN),
    "keep-prefix-churn": lambda: _keep_prefix_stream(CHURN),
}
for _cfg in DEFAULT_CONFIGS:
    INSTANCES[f"assumptions-{_cfg.name}"] = (
        lambda cfg=_cfg: _assumption_stream(cfg)
    )
    INSTANCES[f"keep-prefix-{_cfg.name}"] = (
        lambda cfg=_cfg: _keep_prefix_stream(cfg)
    )


EXPECTED: Dict[str, List[Record]] = {
    'assumptions-base': [
        (True, 685, 26, 41, 'e32d15ace5dd6d68'),
        (True, 1493, 54, 92, '17bc564f24d0aa82'),
        (None, 2330, 95, 147, None),
        (False, 2355, 96, 147, None),
        (True, 2467, 98, 166, '4886caa3c16c8509'),
        (True, 2557, 98, 187, '5a92e7aaa1f82577'),
        (False, 2716, 108, 198, None),
        (False, 2921, 115, 211, None),
        (True, 3295, 127, 239, 'c09e14e852ef0521'),
        (False, 3659, 149, 264, None),
        (False, 3862, 159, 277, None),
        (False, 3905, 160, 277, None),
        (True, 5815, 229, 379, '4eb2a4172b0cc665'),
        (True, 6940, 277, 452, 'c14606cddb1696f3'),
    ],
    'assumptions-churn': [
        (True, 1131, 43, 100, '05a2e4e786e104ef'),
        (True, 1963, 68, 157, '4bb5a36e4fc7d2ed'),
        (None, 2861, 109, 221, None),
        (False, 2898, 110, 221, None),
        (True, 5271, 211, 438, '96645191ae61b36d'),
        (None, 6438, 252, 529, None),
        (False, 6557, 256, 535, None),
        (False, 6656, 260, 538, None),
        (True, 6936, 265, 587, '03f01242bdf6f602'),
        (False, 7870, 299, 631, None),
        (False, 8260, 317, 657, None),
        (False, 8305, 318, 657, None),
        (True, 10197, 379, 810, 'c5cd09f8e8668974'),
        (True, 10287, 379, 825, '4b511117eb12925e'),
    ],
    'assumptions-default': [
        (True, 685, 26, 41, 'e32d15ace5dd6d68'),
        (True, 1493, 54, 92, '17bc564f24d0aa82'),
        (None, 2330, 95, 147, None),
        (False, 2355, 96, 147, None),
        (True, 2467, 98, 166, '4886caa3c16c8509'),
        (True, 2557, 98, 187, '5a92e7aaa1f82577'),
        (False, 2716, 108, 198, None),
        (False, 2921, 115, 211, None),
        (True, 3295, 127, 239, 'c09e14e852ef0521'),
        (False, 3659, 149, 264, None),
        (False, 3862, 159, 277, None),
        (False, 3905, 160, 277, None),
        (True, 5815, 229, 379, '4eb2a4172b0cc665'),
        (True, 6940, 277, 452, 'c14606cddb1696f3'),
    ],
    'assumptions-geo-db': [
        (True, 270, 9, 34, '7e4c30e778a5763f'),
        (True, 406, 12, 51, '9ef5a9ccc9d9778f'),
        (False, 1126, 43, 85, None),
        (False, 1162, 44, 85, None),
        (True, 2876, 117, 188, 'b8a1cd5f268113a3'),
        (True, 3618, 148, 248, 'ac8ebe18387d9b1d'),
        (False, 3747, 153, 252, None),
        (False, 3890, 157, 255, None),
        (True, 4075, 162, 276, 'ae9de50122b1b214'),
        (False, 4407, 179, 296, None),
        (False, 4625, 189, 305, None),
        (False, 4664, 190, 305, None),
        (True, 4909, 196, 333, 'fdf26488f6d87af1'),
        (True, 6385, 255, 415, 'e71fe8ec6142134e'),
    ],
    'assumptions-geo-neg': [
        (True, 718, 36, 48, 'b8917695c51891a8'),
        (True, 2066, 82, 113, 'ef016409d7c7545e'),
        (False, 2826, 123, 156, None),
        (False, 2851, 124, 156, None),
        (True, 3392, 142, 201, '83d3fc9db448ee9a'),
        (True, 3815, 157, 235, '62d7438ddd283df3'),
        (False, 3902, 161, 238, None),
        (False, 4069, 166, 244, None),
        (True, 4551, 185, 285, '4007e6a9af45efb5'),
        (False, 4801, 193, 293, None),
        (False, 4945, 197, 296, None),
        (False, 4988, 198, 296, None),
        (True, 5161, 204, 323, '6145d7b11141478a'),
        (True, 5784, 224, 370, '7abc664fc762cdcf'),
    ],
    'assumptions-jitter': [
        (True, 352, 12, 31, '75d16103e87e9853'),
        (True, 1943, 69, 106, '997a5599040c0a2e'),
        (None, 2869, 110, 161, None),
        (False, 2909, 111, 161, None),
        (True, 4722, 192, 282, 'b439cd4e46cc5e98'),
        (True, 5037, 202, 311, '9e9830ac3d40946c'),
        (False, 5166, 207, 318, None),
        (False, 5275, 210, 323, None),
        (True, 6166, 242, 387, '78b36173965c70fd'),
        (False, 6336, 248, 392, None),
        (False, 6494, 256, 400, None),
        (False, 6537, 257, 400, None),
        (True, 7386, 294, 458, '4c61e208892c8815'),
        (True, 7882, 311, 490, '11e1fd5454f6ed7e'),
    ],
    'keep-prefix-base': [
        (True, 242, 11, 33, '50b39bb33f38ab9d'),
        (True, 321, 11, 48, '50b39bb33f38ab9d'),
        (True, 792, 31, 100, 'a84928560d4b4e8d'),
        (None, 1375, 57, 131, None),
        (False, 1576, 70, 145, None),
        (True, 2211, 101, 203, 'fb92b667fe164d2f'),
        (True, 2290, 101, 232, '1355479bf6773b83'),
        (True, 2539, 111, 255, 'c2a5e86c1abe87d5'),
        (True, 2618, 111, 273, 'c2a5e86c1abe87d5'),
        (True, 3204, 132, 322, '2562dd1cbef44113'),
        (True, 3283, 132, 340, '2562dd1cbef44113'),
        (False, 3472, 142, 352, None),
        (True, 3699, 148, 374, '7a0c9e31fe8bef52'),
        (True, 3778, 148, 393, '7a0c9e31fe8bef52'),
        (True, 3858, 148, 408, 'c618753bccf27cac'),
        (True, 3937, 148, 427, 'c618753bccf27cac'),
    ],
    'keep-prefix-churn': [
        (True, 298, 12, 43, '70ea01073614e26b'),
        (True, 377, 12, 57, '11c621011ad0fa85'),
        (True, 1210, 50, 142, '98a321eaf05910ce'),
        (True, 1453, 54, 183, '6ea815583fad9231'),
        (False, 1880, 71, 217, None),
        (True, 7145, 319, 631, 'e6d1102586e635f4'),
        (True, 8281, 379, 753, '4c8bac4249f01118'),
        (None, 8810, 405, 803, None),
        (True, 11998, 532, 1013, '0771e2037d1c6053'),
        (True, 12471, 550, 1085, 'f2b08d7f2aba2f0b'),
        (True, 12583, 551, 1107, '43999722cf0cf6e2'),
        (None, 13152, 577, 1144, None),
        (True, 13382, 582, 1174, '701dd45522ce7abb'),
        (True, 14494, 623, 1251, '629b00365a86341a'),
        (True, 14574, 623, 1266, 'a263a690d4842ce5'),
        (True, 14653, 623, 1284, 'c53197444b48eee4'),
    ],
    'keep-prefix-default': [
        (True, 242, 11, 33, '50b39bb33f38ab9d'),
        (True, 321, 11, 48, '50b39bb33f38ab9d'),
        (True, 792, 31, 100, 'a84928560d4b4e8d'),
        (None, 1375, 57, 131, None),
        (False, 1576, 70, 145, None),
        (True, 2211, 101, 203, 'fb92b667fe164d2f'),
        (True, 2290, 101, 232, '1355479bf6773b83'),
        (True, 2539, 111, 255, 'c2a5e86c1abe87d5'),
        (True, 2618, 111, 273, 'c2a5e86c1abe87d5'),
        (True, 3204, 132, 322, '2562dd1cbef44113'),
        (True, 3283, 132, 340, '2562dd1cbef44113'),
        (False, 3472, 142, 352, None),
        (True, 3699, 148, 374, '7a0c9e31fe8bef52'),
        (True, 3778, 148, 393, '7a0c9e31fe8bef52'),
        (True, 3858, 148, 408, 'c618753bccf27cac'),
        (True, 3937, 148, 427, 'c618753bccf27cac'),
    ],
    'keep-prefix-geo-db': [
        (True, 178, 5, 23, 'f390c9c812eab066'),
        (True, 992, 39, 99, '67efe49334a7c2db'),
        (True, 1434, 59, 137, '7e815bd2e46204af'),
        (None, 1987, 85, 167, None),
        (False, 2280, 102, 190, None),
        (True, 3316, 148, 255, 'a95d370db5c1a8fb'),
        (True, 3564, 155, 280, '4e8f0b55faea9f21'),
        (True, 4049, 176, 311, '7c542cd15a9fc329'),
        (True, 4409, 191, 344, '7deecff7669b74fd'),
        (True, 4593, 195, 368, '9227198f74a67092'),
        (True, 4672, 195, 386, '9227198f74a67092'),
        (False, 4851, 202, 392, None),
        (True, 5218, 217, 422, '3e5174ea519a709e'),
        (True, 5297, 217, 437, '3e5174ea519a709e'),
        (True, 5377, 217, 456, 'c3d348827c5989c2'),
        (True, 5456, 217, 478, 'ac2a57406cc0c4b0'),
    ],
    'keep-prefix-geo-neg': [
        (True, 155, 4, 26, '5a1a45176699b931'),
        (True, 292, 9, 47, 'c7330263dcb57c25'),
        (True, 552, 19, 69, '33156e900c4fb0bd'),
        (True, 973, 36, 99, 'c5b0cd8acef0aea6'),
        (False, 1306, 51, 117, None),
        (True, 2961, 130, 227, 'f2467c3924067601'),
        (True, 3468, 153, 269, '8045096965917ca5'),
        (None, 3914, 179, 298, None),
        (True, 4898, 224, 355, 'b80defc5d0d05e21'),
        (True, 5658, 264, 416, '36268d4b2534a9ac'),
        (True, 6073, 283, 442, '55d5a0b6deeada45'),
        (False, 6621, 309, 474, None),
        (True, 6850, 318, 488, '42fda86ffb6127a0'),
        (True, 7532, 351, 535, '661b7f2d721a88d8'),
        (True, 7738, 357, 546, '42fda86ffb6127a0'),
        (None, 8316, 383, 575, None),
    ],
    'keep-prefix-jitter': [
        (True, 142, 6, 24, 'b78ea0c8698e982e'),
        (True, 285, 11, 46, '7bb401775567f6d1'),
        (True, 506, 18, 71, '35186573f7178932'),
        (True, 875, 30, 100, 'cf5f2e45917b4c2a'),
        (False, 1114, 44, 117, None),
        (True, 1322, 52, 144, '5d641c3d927da07f'),
        (True, 2069, 85, 203, '14780e5473a6276f'),
        (True, 2152, 86, 215, '59212d4f3a92e44d'),
        (True, 2750, 113, 259, '8f95cab3abceb5fe'),
        (True, 3147, 128, 298, '73e46dc41dafef52'),
        (True, 3659, 151, 346, '3a6ea924dac18e22'),
        (False, 3934, 165, 361, None),
        (True, 4305, 187, 395, '56fc8fa482d589ca'),
        (True, 4725, 207, 445, 'a5fb4599eac62111'),
        (True, 4880, 213, 468, '8e090921d6b7a97f'),
        (True, 5112, 222, 493, 'f3176d233a70c22d'),
    ],
    'php-5-4': [
        (False, 277, 28, 31, None),
    ],
    'php-6-5-conflict-budget': [
        (None, 65, 6, 15, None),
        (None, 329, 27, 58, None),
        (False, 1679, 141, 195, None),
    ],
    'php-7-6-propagation-budget': [
        (None, 303, 27, 43, None),
        (None, 2310, 178, 260, None),
    ],
    'random-110-hard': [
        (True, 5633, 214, 279, '02084ae2117b7704'),
    ],
    'random-110-hard-churn': [
        (True, 14633, 549, 1059, '661d00c1070c0a90'),
    ],
    'unsat-60-churn': [
        (False, 863, 59, 75, None),
    ],
    'unsat-60-default': [
        (False, 832, 56, 65, None),
    ],
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_trajectory_is_pinned(name):
    assert INSTANCES[name]() == EXPECTED[name]


if __name__ == "__main__":
    print("EXPECTED: Dict[str, List[Record]] = {")
    for _name in sorted(INSTANCES):
        print(f"    {_name!r}: [")
        for _rec in INSTANCES[_name]():
            print(f"        {_rec!r},")
        print("    ],")
    print("}")
