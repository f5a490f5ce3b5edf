"""Box charts drawn from the published summary statistics, written as PNG.

A chart is a horizontal box plot with one row per group, labelled at the
left: the box spans ``p25``..``p75``, a vertical line marks ``p50``, and the
whiskers run out to ``whisker_low`` and ``whisker_high``.  These are the
nearest-rank figures of the ``SummaryStats`` that ``summary.csv`` and
``summary.json`` publish, so the picture and the tables cannot disagree.
The x axis spans the lowest to the highest whisker end of the chart.

The image is drawn into a numpy RGB array with a built-in 5x7 bitmap font
(printable ASCII; any other character is drawn as ``?``) and encoded as an
8-bit RGB PNG with ``zlib`` at a fixed level and no timestamp chunk, so the
bytes depend on the statistics alone.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .analysis import SummaryStats

BACKGROUND = (255, 255, 255)
INK = (0, 0, 0)  # text, axis and whiskers
BOX_EDGE = (31, 119, 180)
BOX_FILL = (198, 219, 239)
MEDIAN = (230, 85, 13)

# Each glyph is 7 rows of 5 pixels, top row first; '#' is ink.
_FONT = {
    " ": "..... ..... ..... ..... ..... ..... .....",
    "!": "..#.. ..#.. ..#.. ..#.. ..#.. ..... ..#..",
    '"': ".#.#. .#.#. .#.#. ..... ..... ..... .....",
    "#": ".#.#. .#.#. ##### .#.#. ##### .#.#. .#.#.",
    "$": "..#.. .#### #.#.. .###. ..#.# ####. ..#..",
    "%": "##... ##..# ...#. ..#.. .#... #..## ...##",
    "&": ".##.. #..#. #.#.. .#... #.#.# #..#. .##.#",
    "'": "..#.. ..#.. .#... ..... ..... ..... .....",
    "(": "...#. ..#.. .#... .#... .#... ..#.. ...#.",
    ")": ".#... ..#.. ...#. ...#. ...#. ..#.. .#...",
    "*": "..... ..#.. #.#.# .###. #.#.# ..#.. .....",
    "+": "..... ..#.. ..#.. ##### ..#.. ..#.. .....",
    ",": "..... ..... ..... ..... .##.. ..#.. .#...",
    "-": "..... ..... ..... ##### ..... ..... .....",
    ".": "..... ..... ..... ..... ..... .##.. .##..",
    "/": "..... ....# ...#. ..#.. .#... #.... .....",
    "0": ".###. #...# #..## #.#.# ##..# #...# .###.",
    "1": "..#.. .##.. ..#.. ..#.. ..#.. ..#.. .###.",
    "2": ".###. #...# ....# ...#. ..#.. .#... #####",
    "3": "##### ...#. ..#.. ...#. ....# #...# .###.",
    "4": "...#. ..##. .#.#. #..#. ##### ...#. ...#.",
    "5": "##### #.... ####. ....# ....# #...# .###.",
    "6": "..##. .#... #.... ####. #...# #...# .###.",
    "7": "##### ....# ...#. ..#.. .#... .#... .#...",
    "8": ".###. #...# #...# .###. #...# #...# .###.",
    "9": ".###. #...# #...# .#### ....# ...#. .##..",
    ":": "..... .##.. .##.. ..... .##.. .##.. .....",
    ";": "..... .##.. .##.. ..... .##.. ..#.. .#...",
    "<": "...#. ..#.. .#... #.... .#... ..#.. ...#.",
    "=": "..... ..... ##### ..... ##### ..... .....",
    ">": ".#... ..#.. ...#. ....# ...#. ..#.. .#...",
    "?": ".###. #...# ....# ...#. ..#.. ..... ..#..",
    "@": ".###. #...# ....# .##.# #.#.# #.#.# .###.",
    "A": ".###. #...# #...# ##### #...# #...# #...#",
    "B": "####. #...# #...# ####. #...# #...# ####.",
    "C": ".###. #...# #.... #.... #.... #...# .###.",
    "D": "###.. #..#. #...# #...# #...# #..#. ###..",
    "E": "##### #.... #.... ####. #.... #.... #####",
    "F": "##### #.... #.... ####. #.... #.... #....",
    "G": ".###. #...# #.... #.### #...# #...# .####",
    "H": "#...# #...# #...# ##### #...# #...# #...#",
    "I": ".###. ..#.. ..#.. ..#.. ..#.. ..#.. .###.",
    "J": "..### ...#. ...#. ...#. ...#. #..#. .##..",
    "K": "#...# #..#. #.#.. ##... #.#.. #..#. #...#",
    "L": "#.... #.... #.... #.... #.... #.... #####",
    "M": "#...# ##.## #.#.# #.#.# #...# #...# #...#",
    "N": "#...# #...# ##..# #.#.# #..## #...# #...#",
    "O": ".###. #...# #...# #...# #...# #...# .###.",
    "P": "####. #...# #...# ####. #.... #.... #....",
    "Q": ".###. #...# #...# #...# #.#.# #..#. .##.#",
    "R": "####. #...# #...# ####. #.#.. #..#. #...#",
    "S": ".#### #.... #.... .###. ....# ....# ####.",
    "T": "##### ..#.. ..#.. ..#.. ..#.. ..#.. ..#..",
    "U": "#...# #...# #...# #...# #...# #...# .###.",
    "V": "#...# #...# #...# #...# #...# .#.#. ..#..",
    "W": "#...# #...# #...# #.#.# #.#.# #.#.# .#.#.",
    "X": "#...# #...# .#.#. ..#.. .#.#. #...# #...#",
    "Y": "#...# #...# .#.#. ..#.. ..#.. ..#.. ..#..",
    "Z": "##### ....# ...#. ..#.. .#... #.... #####",
    "[": ".###. .#... .#... .#... .#... .#... .###.",
    "\\": "..... #.... .#... ..#.. ...#. ....# .....",
    "]": ".###. ...#. ...#. ...#. ...#. ...#. .###.",
    "^": "..#.. .#.#. #...# ..... ..... ..... .....",
    "_": "..... ..... ..... ..... ..... ..... #####",
    "`": ".#... ..#.. ...#. ..... ..... ..... .....",
    "a": "..... ..... .###. ....# .#### #...# .####",
    "b": "#.... #.... #.##. ##..# #...# #...# ####.",
    "c": "..... ..... .###. #.... #.... #...# .###.",
    "d": "....# ....# .##.# #..## #...# #...# .####",
    "e": "..... ..... .###. #...# ##### #.... .###.",
    "f": "..##. .#..# .#... ###.. .#... .#... .#...",
    "g": "..... .#### #...# #...# .#### ....# .###.",
    "h": "#.... #.... #.##. ##..# #...# #...# #...#",
    "i": "..#.. ..... .##.. ..#.. ..#.. ..#.. .###.",
    "j": "...#. ..... ..##. ...#. ...#. #..#. .##..",
    "k": "#.... #.... #..#. #.#.. ##... #.#.. #..#.",
    "l": ".##.. ..#.. ..#.. ..#.. ..#.. ..#.. .###.",
    "m": "..... ..... ##.#. #.#.# #.#.# #...# #...#",
    "n": "..... ..... #.##. ##..# #...# #...# #...#",
    "o": "..... ..... .###. #...# #...# #...# .###.",
    "p": "..... ..... ####. #...# ####. #.... #....",
    "q": "..... ..... .##.# #..## .#### ....# ....#",
    "r": "..... ..... #.##. ##..# #.... #.... #....",
    "s": "..... ..... .###. #.... .###. ....# ####.",
    "t": ".#... .#... ###.. .#... .#... .#..# ..##.",
    "u": "..... ..... #...# #...# #...# #..## .##.#",
    "v": "..... ..... #...# #...# #...# .#.#. ..#..",
    "w": "..... ..... #...# #...# #.#.# #.#.# .#.#.",
    "x": "..... ..... #...# .#.#. ..#.. .#.#. #...#",
    "y": "..... ..... #...# #...# .#### ....# .###.",
    "z": "..... ..... ##### ...#. ..#.. .#... #####",
    "{": "...#. ..#.. ..#.. .#... ..#.. ..#.. ...#.",
    "|": "..#.. ..#.. ..#.. ..#.. ..#.. ..#.. ..#..",
    "}": ".#... ..#.. ..#.. ...#. ..#.. ..#.. .#...",
    "~": "..... ..... .#... #.#.# ...#. ..... .....",
}
_GLYPH_H = 7
_ADVANCE = 6  # glyph width 5 plus one column of spacing

_PAD = 10
_TITLE_SCALE = 2
_ROW_H = 22
_BOX_H = 14
_CAP_H = 8
_PLOT_W = 480
_TICK_H = 4


def box_chart_png(title: str, groups: dict[str, SummaryStats]) -> bytes:
    """PNG bytes of a box chart with one row per group, top to bottom in order.

    Every group must have data (``count > 0``) and there must be at least one.
    """
    lo = min(s.whisker_low for s in groups.values())
    hi = max(s.whisker_high for s in groups.values())
    if hi == lo:
        half = abs(lo) / 10 or 1
        lo, hi = lo - half, hi + half
    ticks = _ticks(lo, hi)
    tick_half_w = max((_text_width(label) for _, label in ticks), default=0) // 2

    x0 = _PAD + max(max(_text_width(g) for g in groups) + _PAD, tick_half_w)
    y0 = _PAD + _GLYPH_H * _TITLE_SCALE + _PAD
    axis_y = y0 + len(groups) * _ROW_H
    width = max(x0 + _PLOT_W + tick_half_w + _PAD, 2 * _PAD + _text_width(title, _TITLE_SCALE))
    height = axis_y + _TICK_H + 2 + _GLYPH_H + _PAD
    img = np.full((height, width, 3), BACKGROUND, np.uint8)

    def px(value: float) -> int:
        # float arithmetic near 2**53 and beyond can land a column past either end
        return x0 + min(max(round((value - lo) / (hi - lo) * (_PLOT_W - 1)), 0), _PLOT_W - 1)

    _draw_text(img, _PAD, _PAD, title, _TITLE_SCALE)
    for i, (group, s) in enumerate(groups.items()):
        top = y0 + i * _ROW_H + (_ROW_H - _BOX_H) // 2
        bottom = top + _BOX_H  # exclusive
        mid = top + _BOX_H // 2
        _draw_text(img, x0 - _PAD - _text_width(group), mid - _GLYPH_H // 2, group)
        x_lo, x25, x50, x75, x_hi = (px(v) for v in (s.whisker_low, s.p25, s.p50, s.p75, s.whisker_high))
        img[mid, x_lo:x_hi + 1] = INK
        cap_top = mid - _CAP_H // 2
        img[cap_top:cap_top + _CAP_H + 1, [x_lo, x_hi]] = INK
        img[top:bottom, x25:x75 + 1] = BOX_EDGE
        img[top + 1:bottom - 1, x25 + 1:x75] = BOX_FILL
        img[top:bottom, x50] = MEDIAN

    img[axis_y, x0:x0 + _PLOT_W] = INK
    for value, label in ticks:
        x = px(value)
        img[axis_y:axis_y + _TICK_H, x] = INK
        _draw_text(img, x - _text_width(label) // 2, axis_y + _TICK_H + 2, label)
    return _encode_png(img)


def _ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Round-numbered ticks (steps of 1, 2 or 5 times a power of ten) in [lo, hi]; near 2**53
    and beyond, a tick that ``k * step`` rounds out of the range is left out, so there may be none."""
    rough = (hi - lo) / 5
    power = math.floor(math.log10(rough))
    step = next(m * 10.0 ** power for m in (1, 2, 5, 10) if m * 10.0 ** power >= rough)
    decimals = max(0, -math.floor(math.log10(step)))
    first = math.ceil(lo / step)
    last = math.floor(hi / step)
    return [(v, f"{v:.{decimals}f}") for v in (k * step for k in range(first, last + 1)) if lo <= v <= hi]


def _text_width(text: str, scale: int = 1) -> int:
    return max(0, len(text) * _ADVANCE - 1) * scale


def _draw_text(img: np.ndarray, x: int, y: int, text: str, scale: int = 1) -> None:
    for i, ch in enumerate(text):
        rows = _FONT.get(ch, _FONT["?"]).split()
        mask = np.array([[c == "#" for c in row] for row in rows]).repeat(scale, 0).repeat(scale, 1)
        gx = x + i * _ADVANCE * scale
        img[y:y + mask.shape[0], gx:gx + mask.shape[1]][mask] = INK


def _encode_png(img: np.ndarray) -> bytes:
    """An 8-bit RGB PNG of a ``(height, width, 3)`` uint8 array, filter type 0 on every row."""
    height, width, _ = img.shape
    raw = np.zeros((height, 1 + 3 * width), np.uint8)
    raw[:, 1:] = img.reshape(height, -1)

    def chunk(kind: bytes, data: bytes) -> bytes:
        return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))

    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0))
        + chunk(b"IDAT", zlib.compress(raw.tobytes(), 9))
        + chunk(b"IEND", b"")
    )
