"""Block-letter alphabet, word composition, and the two reading strategies.

Letters are unions of filled unit cells on a 3-wide x 5-tall grid, so their
exact areas and perimeters come from cell counting and boundary walking. The
masks below were chosen so that no two letters share an (area, perimeter)
pair; some carry distinguishing cells on top of the plain block form. Cells
may touch only along full edges (corner-only contact would pinch the outline
into touching rings).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import recognition
from .geometry import Point, Ring, Shape, exact_area, exact_perimeter
from .sampling import ArenaCircle, SamplerConfig

# Rows are top to bottom; 'X' marks a filled cell.
LETTER_MASKS: dict[str, tuple[str, ...]] = {
    "A": ("XXX", "X.X", "XXX", "X.X", "X.."),
    "B": ("XXX", "X.X", "XXX", "X.X", "XXX"),
    "C": ("XXX", "X..", "X..", "X..", "XXX"),
    "D": ("XXX", "X.X", "X.X", "X..", "XXX"),
    "E": ("XXX", "X..", "XXX", "X..", "XX."),
    "F": ("XXX", "X..", "XX.", "X..", "X.."),
    "G": ("XXX", "X..", "X.X", "XXX", "XXX"),
    "H": ("X.X", "XXX", "XXX", "X.X", "X.."),
    "I": (".X.", ".X.", ".X.", ".X.", ".X."),
    "J": ("...", "...", "..X", "X.X", "XXX"),
    "K": ("XXX", "XXX", "XX.", "XXX", "X.."),
    "L": ("X..", "X..", "X..", "X..", "XXX"),
    "M": ("XX.", "XXX", "XXX", "X.X", "X.X"),
    "N": ("XXX", "XXX", "X.X", "X..", "X.."),
    "O": ("XXX", "X.X", "X.X", "X.X", "XXX"),
    "P": ("XXX", "X.X", "XXX", "...", "..."),
    "Q": ("XXX", "XXX", "X.X", "XXX", "..."),
    "R": ("XXX", "XXX", "XXX", "XX.", "X.."),
    "S": ("XXX", "X..", "XXX", "XXX", "XXX"),
    "T": ("XX.", "XX.", ".X.", ".X.", ".X."),
    "U": ("XXX", "XXX", "X.X", "X.X", "XXX"),
    "V": ("X..", "X..", "XXX", "XXX", ".X."),
    "W": ("X..", "XXX", "XXX", "XXX", "X.."),
    "X": ("XXX", "XX.", ".X.", "XX.", "X.."),
    "Y": ("X..", "XXX", "XXX", ".X.", "..."),
    "Z": ("XXX", ".XX", "XX.", "X..", "XX."),
}

GRID_COLS = 3
GRID_ROWS = 5
DEFAULT_GAP_CELLS = 1.0  # gap between letters, in units of the cell side

# Letters (and words) sit much closer together in the perimeter-area plane
# than the built-in shape dictionary, and prefix estimates decorrelate slowly,
# so early confident-but-wrong stops are the dominant reading error. Spending
# half the allotted budget before confidence claims (plus a short label
# confirmation) suppresses them at negligible cost: correct stops were going
# to clear the threshold anyway.
READ_WARMUP_CAP = 2500
READ_CONFIRM = 30  # consecutive above-threshold lines before stopping


def _read_warmup(budget: int) -> int:
    return max(recognition.DEFAULT_WARMUP, min(budget // 2, READ_WARMUP_CAP))


def _mask_cells(mask) -> set[tuple[int, int]]:
    cells = {
        (c, r)
        for r, row in enumerate(mask)
        for c, ch in enumerate(row)
        if ch == "X"
    }
    if not cells:
        raise ValueError("empty letter mask")
    return cells


def _trace_boundary(cells: set[tuple[int, int]]) -> list[list[tuple[float, float]]]:
    """Directed boundary loops of a cell union, interior kept on the left.

    Raises if two boundary edges leave the same vertex, which happens exactly
    when two cells meet only at a corner.
    """
    nxt: dict[tuple[int, int], tuple[int, int]] = {}
    for c, r in cells:
        y = GRID_ROWS - 1 - r  # row 0 is the top
        x = c
        quads = [
            ((c, r + 1), (x, y), (x + 1, y)),  # below empty -> bottom edge
            ((c + 1, r), (x + 1, y), (x + 1, y + 1)),  # right
            ((c, r - 1), (x + 1, y + 1), (x, y + 1)),  # above empty -> top edge
            ((c - 1, r), (x, y + 1), (x, y)),  # left
        ]
        for nb, a, b in quads:
            if nb not in cells:
                if a in nxt:
                    raise ValueError("mask has corner-only cell contact")
                nxt[a] = b
    loops = []
    while nxt:
        start, cur = next(iter(nxt.items()))
        loop = [start]
        while cur != start:
            loop.append(cur)
            cur = nxt.pop(cur)
        del nxt[start]
        # merge collinear runs
        out = []
        n = len(loop)
        for i, pt in enumerate(loop):
            a = loop[i - 1]
            b = loop[(i + 1) % n]
            if (b[0] - a[0]) * (pt[1] - a[1]) != (pt[0] - a[0]) * (b[1] - a[1]):
                out.append(pt)
        loops.append(out)
    return loops


def mask_to_shape(mask, cell: float, origin: tuple[float, float] = (0.0, 0.0), name=None) -> Shape:
    loops = _trace_boundary(_mask_cells(mask))
    rings = [
        Ring([(origin[0] + x * cell, origin[1] + y * cell) for x, y in loop])
        for loop in loops
    ]
    return Shape(rings, name=name)


def letter_shape(c: str, s: float) -> Shape:
    """Shape of one capital letter with cell side s, anchored at the origin."""
    if c not in LETTER_MASKS:
        raise KeyError(f"unsupported character {c!r} (A-Z only)")
    return mask_to_shape(LETTER_MASKS[c], s, name=c)


class Alphabet:
    """All 26 letter shapes at a common cell side, with their exact oracles.

    Construction verifies that every letter is a valid shape and that no two
    letters share an (area, perimeter) pair; any residual collisions are
    reported in .collisions (empty for the shipped masks).
    """

    def __init__(self, cell: float = 1.0):
        self.cell = cell
        self.shapes = {c: letter_shape(c, cell) for c in LETTER_MASKS}
        self.table = {
            c: (exact_area(sh), exact_perimeter(sh)) for c, sh in self.shapes.items()
        }
        by_pair: dict[tuple[float, float], list[str]] = {}
        for c, (a, p) in self.table.items():
            by_pair.setdefault((round(a, 9), round(p, 9)), []).append(c)
        self.collisions = [tuple(v) for v in by_pair.values() if len(v) > 1]

    def shape(self, c: str) -> Shape:
        return self.shapes[c]

    def min_separation(self) -> float:
        """Smallest pairwise distance in (A/s^2, P/s) space across letters."""
        pts = np.array(
            [(a / self.cell**2, p / self.cell) for a, p in self.table.values()]
        )
        d = np.hypot(
            pts[:, 0][:, None] - pts[:, 0][None, :],
            pts[:, 1][:, None] - pts[:, 1][None, :],
        )
        np.fill_diagonal(d, np.inf)
        return float(d.min())


@dataclass
class WordShape:
    """A word as disjoint letter shapes placed left to right."""

    word: str
    shape: Shape
    letter_shapes: list[Shape]
    boxes: list[tuple[float, float, float, float]]
    cell: float
    gap: float

    @property
    def advance(self) -> float:
        return GRID_COLS * self.cell + self.gap


def word_shape(word: str, s: float, gap: float | None = None) -> WordShape:
    """Compose a word; area and perimeter are additive over the letters."""
    if not word:
        raise ValueError("word must be non-empty")
    gap = s * DEFAULT_GAP_CELLS if gap is None else gap
    if gap <= 0.0:
        raise ValueError("letter gap must be positive (letters must stay disjoint)")
    advance = GRID_COLS * s + gap
    letters = []
    boxes = []
    for i, c in enumerate(word):
        x0 = i * advance
        if c not in LETTER_MASKS:
            raise KeyError(f"unsupported character {c!r} in word {word!r}")
        letters.append(mask_to_shape(LETTER_MASKS[c], s, origin=(x0, 0.0), name=c))
        boxes.append((x0, 0.0, x0 + GRID_COLS * s, GRID_ROWS * s))
    combined = Shape([r for sh in letters for r in sh.rings], name=word, validate=False)
    return WordShape(word, combined, letters, boxes, s, gap)


def letter_arena(box: tuple[float, float, float, float], scale: float = 1.2) -> ArenaCircle:
    """Circumscribed circle of a letter slot box, inflated by the arena scale."""
    x0, y0, x1, y1 = box
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    r = math.hypot(x1 - x0, y1 - y0) / 2.0
    return ArenaCircle(Point(cx, cy), r * scale)


@dataclass
class ReadResult:
    text: str
    n_lines: int
    correct: bool
    censored: bool
    area_hat: float
    perim_hat: float
    per_letter_n: list[int] = field(default_factory=list)
    per_letter_censored: list[bool] = field(default_factory=list)


def read_local(
    target: WordShape,
    letter_dict: list[recognition.DictEntry],
    per_letter_budget: int,
    config: SamplerConfig | None = None,
    *,
    threshold: float = recognition.DEFAULT_THRESHOLD,
    warm_up: int | None = None,
) -> ReadResult:
    """Letter-by-letter strategy: each slot gets its own arena and stopping.

    Slot i explores its own substream (seed, i). Word-level area/perimeter
    are sums of the per-letter estimates; no error bar is reported for them.
    The threshold applies to the word: with independent letters the word's
    posterior is the product of the letters', so each letter must clear the
    n-th root of the threshold (Sidak).
    """
    config = config or SamplerConfig()
    if per_letter_budget < 1:
        return ReadResult(
            text="?" * len(target.word),
            n_lines=0,
            correct=False,
            censored=True,
            area_hat=float("nan"),
            perim_hat=float("nan"),
            per_letter_n=[0] * len(target.word),
            per_letter_censored=[True] * len(target.word),
        )
    if warm_up is None:
        warm_up = _read_warmup(per_letter_budget)
    if threshold > 0.0:
        threshold = threshold ** (1.0 / len(target.word))
    text = []
    per_n, per_cens = [], []
    areas, perims = [], []
    for i, letter_sh in enumerate(target.letter_shapes):
        arena = letter_arena(target.boxes[i], config.arena_scale)
        res = recognition.explore_until_stop(
            letter_sh,
            letter_dict,
            config,
            threshold=threshold,
            n_max=per_letter_budget,
            warm_up=warm_up,
            confirm=READ_CONFIRM,
            arena=arena,
            chunk=64,
            rng=np.random.default_rng([config.seed, i]),
        )
        text.append(res.label if res.label is not None else "?")
        per_n.append(res.n_stop)
        per_cens.append(res.censored)
        areas.append(res.area_hat)
        perims.append(res.perim_hat)
    word = "".join(text)
    return ReadResult(
        text=word,
        n_lines=sum(per_n),
        correct=word == target.word,
        censored=any(per_cens),
        area_hat=float(np.sum(areas)),
        perim_hat=float(np.sum(perims)),
        per_letter_n=per_n,
        per_letter_censored=per_cens,
    )


def anagram_groups(words) -> list[list[str]]:
    seen: dict[str, list[str]] = {}
    for w in words:
        seen.setdefault("".join(sorted(w)), []).append(w)
    return [g for g in seen.values() if len(g) > 1]


def read_global(
    target: WordShape,
    word_dict: list[recognition.DictEntry],
    budget: int,
    config: SamplerConfig | None = None,
    *,
    threshold: float = recognition.DEFAULT_THRESHOLD,
    warm_up: int | None = None,
) -> ReadResult:
    """Whole-word strategy: one arena over the full word, one classification."""
    config = config or SamplerConfig()
    if warm_up is None:
        warm_up = _read_warmup(budget)
    groups = anagram_groups([e.name for e in word_dict])
    if groups:
        warnings.warn(
            f"dictionary contains anagram groups {groups}; those words share "
            "(perimeter, area) and cannot be told apart",
            stacklevel=2,
        )
    if budget < 1:
        return ReadResult(
            text="?",
            n_lines=0,
            correct=False,
            censored=True,
            area_hat=float("nan"),
            perim_hat=float("nan"),
        )
    res = recognition.explore_until_stop(
        target.shape,
        word_dict,
        config,
        threshold=threshold,
        n_max=budget,
        warm_up=warm_up,
        confirm=READ_CONFIRM,
        chunk=256,
    )
    return ReadResult(
        text=res.label if res.label is not None else "?",
        n_lines=res.n_stop,
        correct=res.label == target.word,
        censored=res.censored,
        area_hat=res.area_hat,
        perim_hat=res.perim_hat,
    )


@dataclass
class StrategyComparison:
    word: str
    exact_area: float
    exact_perimeter: float
    local_n: list[int]
    global_n: list[int]
    local_success: float
    global_success: float
    local_area: list[float]
    global_area: list[float]
    local_perim: list[float]
    global_perim: list[float]


def compare_strategies(
    word: str,
    letter_dict: list[recognition.DictEntry],
    word_dict: list[recognition.DictEntry],
    seeds,
    *,
    cell: float = 1.0,
    budget: int = 30_000,
    threshold: float = recognition.DEFAULT_THRESHOLD,
    config: SamplerConfig | None = None,
) -> StrategyComparison:
    """Run both strategies once per seed under a shared total line budget."""
    config = config or SamplerConfig()
    target = word_shape(word, cell)
    per_letter = max(1, budget // len(word))
    loc_n, glo_n = [], []
    loc_ok = glo_ok = 0
    loc_a, glo_a, loc_p, glo_p = [], [], [], []
    for seed in seeds:
        cfg = dataclasses.replace(config, seed=int(seed))
        lr = read_local(target, letter_dict, per_letter, cfg, threshold=threshold)
        gr = read_global(target, word_dict, budget, cfg, threshold=threshold)
        loc_n.append(lr.n_lines)
        glo_n.append(gr.n_lines)
        loc_ok += lr.correct
        glo_ok += gr.correct
        loc_a.append(lr.area_hat)
        glo_a.append(gr.area_hat)
        loc_p.append(lr.perim_hat)
        glo_p.append(gr.perim_hat)
    n = max(1, len(loc_n))
    return StrategyComparison(
        word=word,
        exact_area=exact_area(target.shape),
        exact_perimeter=exact_perimeter(target.shape),
        local_n=loc_n,
        global_n=glo_n,
        local_success=loc_ok / n,
        global_success=glo_ok / n,
        local_area=loc_a,
        global_area=glo_a,
        local_perim=loc_p,
        global_perim=glo_p,
    )


# Words drawn from the UN charter preamble, upper-cased and filtered so no two
# are anagrams of each other (anagrams share exact area and perimeter).
PREAMBLE_WORDS = (
    "FREEDOM",
    "PEOPLES",
    "NATIONS",
    "DETERMINED",
    "GENERATIONS",
    "MANKIND",
    "DIGNITY",
    "WORTH",
    "HUMAN",
    "PERSON",
    "EQUAL",
    "RIGHTS",
    "JUSTICE",
    "RESPECT",
    "TOLERANCE",
    "PEACE",
    "SECURITY",
    "ARMED",
    "PROGRESS",
    "LIFE",
)


def default_word_list() -> list[str]:
    words = list(PREAMBLE_WORDS)
    if anagram_groups(words):
        raise ValueError("default word list must be anagram-free")
    return words


def calibrate_letters(
    cell: float = 1.0,
    m_lines: int = 800,
    replicates: int = 30,
    config: SamplerConfig | None = None,
) -> list[recognition.DictEntry]:
    """Calibrated dictionary over the alphabet, arenas matching read_local."""
    config = config or SamplerConfig()
    alphabet = Alphabet(cell)
    entries = []
    for i, c in enumerate(sorted(LETTER_MASKS)):
        box = (0.0, 0.0, GRID_COLS * cell, GRID_ROWS * cell)
        entries.append(
            recognition.calibrate(
                alphabet.shape(c),
                m_lines,
                replicates,
                dataclasses.replace(config, seed=config.seed + i),
                name=c,
                arena=letter_arena(box, config.arena_scale),
            )
        )
    return entries


def calibrate_words(
    words,
    cell: float = 1.0,
    m_lines: int = 1500,
    replicates: int = 25,
    config: SamplerConfig | None = None,
) -> list[recognition.DictEntry]:
    """Calibrated dictionary over whole-word shapes."""
    config = config or SamplerConfig()
    entries = []
    for i, w in enumerate(words):
        ws = word_shape(w, cell)
        entries.append(
            recognition.calibrate(
                ws.shape,
                m_lines,
                replicates,
                dataclasses.replace(config, seed=config.seed + 1000 + i),
                name=w,
            )
        )
    return entries
