"""Block-letter alphabet, word composition, and the two reading strategies.

Letters are unions of filled unit cells on a 3-wide x 5-tall grid, so their
exact areas and perimeters come from cell counting and boundary walking. The
masks below were chosen so that no two letters share an (area, perimeter)
pair; some carry distinguishing cells on top of the plain block form. Cells
may touch only along full edges (corner-only contact would pinch the outline
into touching rings).

A letter is one cached shape per cell side, letter_shape(c, cell), that carries
its cell box's circle as its arena: the letter dictionary calibrates it, and a
letter-by-letter read explores it. A word's shape holds its letters' rings moved into place.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import recognition
from .explore import map_jobs
from .geometry import Point, Ring, Shape, exact_area, exact_perimeter
from .sampling import LETTER, SLOT, WORD, SamplerConfig, substream

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


def mask_to_shape(mask, cell: float, name=None) -> Shape:
    loops = _trace_boundary(_mask_cells(mask))
    return Shape([Ring([(x * cell, y * cell) for x, y in loop]) for loop in loops], name=name)


@functools.lru_cache(maxsize=256)
def letter_shape(c: str, s: float) -> Shape:
    """Capital letter c with cell side s at the origin, in its cell box's circle; one per (c, s)."""
    if c not in LETTER_MASKS:
        raise KeyError(f"unsupported character {c!r} (A-Z only)")
    shape = mask_to_shape(LETTER_MASKS[c], s, name=c)
    w, h = GRID_COLS * s, GRID_ROWS * s
    shape.derived("arena", lambda _: (Point(w / 2.0, h / 2.0), math.hypot(w, h) / 2.0))
    return shape


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
    """A word as one shape: slot i holds letter_shape(word[i], cell), moved right."""

    word: str
    shape: Shape
    cell: float


def word_shape(word: str, s: float) -> WordShape:
    """Compose a word; area and perimeter are additive over the letters."""
    if not word:
        raise ValueError("word must be non-empty")
    advance = (GRID_COLS + DEFAULT_GAP_CELLS) * s
    rings = []
    for i, c in enumerate(word):
        if c not in LETTER_MASKS:
            raise KeyError(f"unsupported character {c!r} in word {word!r}")
        # x0 + x * s: the cached letter's valid rings, moved to slot i
        rings += [r.coords + (i * advance, 0.0) for r in letter_shape(c, s).rings]
    return WordShape(word, Shape(rings, name=word, validate=False), s)


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


def _read(word, slots, entries, budget, threshold) -> ReadResult:
    """The (shape, config) slots explored in lockstep until each stops; the
    joined labels are the word read.

    Word-level area/perimeter are sums of the slot estimates, with no error bar.
    The threshold applies to the word: with independent slots the word's
    posterior is the product of the slots', so each slot must clear the n-th
    root of the threshold (Sidak). A budget below 1 leaves every slot censored.
    """
    recognition._check_threshold(threshold)
    if threshold > 0.0:
        threshold = threshold ** (1.0 / len(slots))
    if budget < 1:
        results = [recognition.StopResult(None, 0, True, math.nan, math.nan, 0.0)] * len(slots)
    else:
        results = recognition.explore_slots_until_stop(
            slots, entries, threshold=threshold, n_max=budget,
            warm_up=_read_warmup(budget), confirm=READ_CONFIRM,
        )
    text = "".join("?" if r.label is None else r.label for r in results)
    return ReadResult(
        text=text,
        n_lines=sum(r.n_stop for r in results),
        correct=text == word,
        censored=any(r.censored for r in results),
        area_hat=float(np.sum([r.area_hat for r in results])),
        perim_hat=float(np.sum([r.perim_hat for r in results])),
        per_letter_n=[r.n_stop for r in results],
        per_letter_censored=[r.censored for r in results],
    )


def read_local(
    target: WordShape,
    letter_dict: list[recognition.DictEntry],
    per_letter_budget: int,
    config: SamplerConfig | None = None,
    *,
    threshold: float = recognition.DEFAULT_THRESHOLD,
) -> ReadResult:
    """Letter-by-letter strategy: slot i explores letter_shape(word[i], cell),
    the dictionary's letter in its arena, from substream(seed, SLOT, i)."""
    config = config or SamplerConfig()
    slots = [
        (letter_shape(c, target.cell),
         dataclasses.replace(config, seed=substream(config.seed, SLOT, i)))
        for i, c in enumerate(target.word)
    ]
    return _read(target.word, slots, letter_dict, per_letter_budget, threshold)


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
) -> ReadResult:
    """Whole-word strategy: one slot over the full word at the full threshold."""
    groups = anagram_groups([e.name for e in word_dict])
    if groups:
        warnings.warn(
            f"dictionary contains anagram groups {groups}; those words share "
            "(perimeter, area) and cannot be told apart",
            stacklevel=2,
        )
    res = _read(target.word, [(target.shape, config)], word_dict, budget, threshold)
    return dataclasses.replace(res, per_letter_n=[], per_letter_censored=[])


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


def _calibrate(shapes, n, site, m_lines, replicates, config):
    """One calibrated entry per shape, named for it, entry i seeded by
    substream(seed, site, i); the n entries are explore.map_jobs' jobs.

    shapes may be a generator: in this process each shape, with its compiled
    kernel, is then freed before the next one is built.
    """
    config = config or SamplerConfig()
    jobs = (
        (shape, m_lines, replicates,
         dataclasses.replace(config, seed=substream(config.seed, site, i)))
        for i, shape in enumerate(shapes)
    )
    return map_jobs(recognition.calibrate, jobs, n, n * m_lines * replicates)


def calibrate_letters(
    cell: float = 1.0,
    m_lines: int = 800,
    replicates: int = 30,
    config: SamplerConfig | None = None,
) -> list[recognition.DictEntry]:
    """Calibrated dictionary over the alphabet: the letters read_local explores."""
    shapes = (letter_shape(c, cell) for c in sorted(LETTER_MASKS))
    return _calibrate(shapes, len(LETTER_MASKS), LETTER, m_lines, replicates, config)


def calibrate_words(
    words,
    cell: float = 1.0,
    m_lines: int = 1500,
    replicates: int = 25,
    config: SamplerConfig | None = None,
) -> list[recognition.DictEntry]:
    """Calibrated dictionary over whole-word shapes."""
    words = list(words)
    shapes = (word_shape(w, cell).shape for w in words)
    return _calibrate(shapes, len(words), WORD, m_lines, replicates, config)
