"""Word kernels: the hot loops of free-group and braid word arithmetic.

A word over a free alphabet is a sequence of nonzero signed integers:
``+k`` is the k-th generator, ``-k`` its inverse.  "Reduced" means no
adjacent pair ``x, -x``.  Every kernel returns a reduced tuple.

Joining two reduced words can cancel letters only at the seam between
them, so ``concat_reduced`` and ``substitute`` compare letters there and
copy the rest of each word in one slice or ``extend``.

Callers look the kernels up as ``_kernels.<name>`` at call time, never
through ``from ... import``, so a test or tracer can rebind and count
them.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import neg

from braidact.errors import ResourceLimitError


def reduce_letters(letters: Sequence[int]) -> tuple[int, ...]:
    """Freely reduce an arbitrary letter sequence."""
    stack: list[int] = []
    push = stack.append
    pop = stack.pop
    for x in letters:
        if stack and stack[-1] == -x:
            pop()
        else:
            push(x)
    return tuple(stack)


def concat_reduced(w1: Sequence[int], w2: Sequence[int]) -> tuple[int, ...]:
    """Concatenate two reduced words, cancelling only at the seam."""
    i = len(w1)
    j = 0
    n2 = len(w2)
    while i > 0 and j < n2 and w1[i - 1] == -w2[j]:
        i -= 1
        j += 1
    return tuple(w1[:i]) + tuple(w2[j:])


def invert_reduced(w: Sequence[int]) -> tuple[int, ...]:
    """Inverse of a reduced word: reversed order, flipped signs."""
    return tuple(map(neg, reversed(w)))


def substitute(
    pos_images: Sequence[tuple[int, ...]],
    neg_images: Sequence[tuple[int, ...]],
    word: Sequence[int],
    cap: int,
) -> tuple[int, ...]:
    """Apply a generator substitution to a word, reducing on the fly.

    ``pos_images[k-1]`` / ``neg_images[k-1]`` are the reduced images of
    the k-th generator and of its inverse.  The running result and each
    image are reduced, so letters cancel only at the seam between them:
    pop while the top of the stack inverts the image's next letter, then
    append the rest of the image whole.  Within one image the stack only
    shrinks and then only grows, so checking ``cap`` once per image
    raises ResourceLimitError on the same call as checking every push.
    An unreduced ``word`` still gives the reduced result: its ``x, -x``
    pairs cancel through the seam.
    """
    stack: list[int] = []
    pop = stack.pop
    extend = stack.extend
    for x in word:
        image = pos_images[x - 1] if x > 0 else neg_images[-x - 1]
        j = 0
        n = len(image)
        while j < n and stack and stack[-1] == -image[j]:
            pop()
            j += 1
        extend(image[j:])
        if len(stack) > cap:
            raise ResourceLimitError(cap)
    return tuple(stack)
