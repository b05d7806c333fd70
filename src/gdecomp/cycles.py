"""Short cycles on Cayley balls, as closed words at the identity.

A Cayley graph is vertex-transitive, so every cycle of length <= r in a
ball is the left translate of a simple closed walk at vertex 0. Those
walks are found once (`closed_words`), as words of generator indices,
by DFS over the ball's right-multiplication table; a cycle of the ball
is then one of the words walked from one of its vertices (`_kernel`).
A word's edge labels are its generators' symbols: `gen_symbols` labels
each element once, so one generator joins two vertices. The truncated
cover folds along the same words.
"""

from __future__ import annotations

import warnings

from .groups.element import invert_word, parse_word, render_letter

BACKEND = "python"  # the kernel in use, recorded with benchmark results


class Cycle:
    """A simple cycle: vertex indices (min-first) and edge labels."""

    __slots__ = ("vertices", "labels", "canonical")

    def __init__(self, vertices, labels, canonical=None):
        self.vertices = tuple(vertices)
        self.labels = tuple(labels)
        # translates of one word share their labels, hence their canonical word
        self.canonical = (canonical if canonical is not None
                          else _canonical_word(self.labels))

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return f"Cycle({'.'.join(self.canonical)})"

    def __eq__(self, other):
        return isinstance(other, Cycle) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def to_json(self):
        return {"vertices": list(self.vertices),
                "labels": list(self.labels),
                "canonical": list(self.canonical)}


def _least_rotation(word):
    n = len(word)
    doubled = word + word
    return min(tuple(doubled[i:i + n]) for i in range(n))


def _canonical_word(labels):
    """Least rotation of the smaller of the word and its reversed inverse."""
    rev_inv = tuple(map(render_letter, invert_word(parse_word(labels))))
    return min(_least_rotation(tuple(labels)), _least_rotation(rev_inv))


def closed_words(ball, r):
    """The simple closed walks at vertex 0 of length 3..r, in both
    orientations, as tuples of generator indices; each step is the one
    generator index that reaches its vertex. Every such walk stays
    within r // 2 of vertex 0, so the ball must reach that far."""
    if ball.radius < r // 2:
        raise ValueError("ball radius must be >= r // 2")
    right, dist = ball.right, ball.word_length
    words, word, on_path = [], [], {0}

    def extend(v):
        steps = len(word) + 1  # walk length once the next step is taken
        for k, w in enumerate(right[v]):
            if w < 0 or w == v:
                continue
            if w == 0:
                if steps >= 3:
                    words.append((*word, k))
            # w must be able to get back to 0 in the r - steps steps left
            elif w not in on_path and dist[w] <= r - steps:
                word.append(k)
                on_path.add(w)
                extend(w)
                on_path.discard(w)
                word.pop()

    extend(0)
    return words


def _kernel(ball, words):
    """Per word, the vertex tuples of its translates x.w that stay in the
    ball, have x as their least vertex and a second vertex less than their
    last. Over all words this is each cycle of the ball exactly once."""
    right = ball.right
    out = []
    for word in words:
        steps = word[:-1]  # the last step closes the walk at x
        found = []
        for x in range(len(right)):
            v, verts = x, [x]
            for k in steps:
                v = right[v][k]
                if v <= x:  # outside the ball (-1) or below x
                    break
                verts.append(v)
            else:
                if verts[1] < verts[-1]:
                    found.append(tuple(verts))
        out.append(found)
    return out


def enumerate_short_cycles(ball, r):
    """All simple cycles of edge length <= r inside the ball, deduplicated
    up to rotation and reversal, sorted by (length, canonical word)."""
    if r < 3:
        raise ValueError("cycles need length >= 3")
    words = closed_words(ball, r)
    if ball.radius < r:
        warnings.warn(
            f"ball radius {ball.radius} < r={r}: cycles near the boundary may be clipped",
            stacklevel=2)
    syms = [sym for sym, _ in ball.generators]
    cycles = []
    for word, translates in zip(words, _kernel(ball, words)):
        labels = [syms[k] for k in word]
        canonical = _canonical_word(labels)
        cycles.extend(Cycle(verts, labels, canonical) for verts in translates)
    cycles.sort(key=lambda c: (len(c), c.canonical, c.vertices))
    return cycles
