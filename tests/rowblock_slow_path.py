"""Row-block helpers that only the tests use.

``characteristic_monomial(diagonal_rowblock(form))`` is the slow path
that the O(N) kernel ``laplace.characteristic_exponents`` is held to,
``leading_rowblock`` reads the largest row-block of a class with no
expansion, to check the row-block order against ``expand_rowblocks``, and
``sort_entries`` then ``decoding_table`` is the validated chain that
``laplace._sorted_order`` and ``laplace._cut_at_runs`` replace.
``decoding_table`` is a frozen copy of the package's former
``build_decoding_table``: the paper's table as a record of distinct
values and variable blocks, with every check of its input.
``standard_permutation`` reads the ranks of a form's entries back off
``CvForm.type_of``.
"""

from cvforms.cvform import CvForm, permutation_sign, valid_class
from cvforms.laplace import RowBlock


def sort_entries(form: CvForm) -> tuple[CvForm, tuple[int, ...], int]:
    """Stable sort of the entries.

    Returns the sorted form, the 1-based source position of each
    sorted column, and the sign of that permutation.
    """
    order = sorted(range(form.N), key=lambda i: (form.entries[i], i))
    perm = tuple(i + 1 for i in order)
    return CvForm(form.entries[i] for i in order), perm, permutation_sign(perm)


def decoding_table(form: CvForm, variables=None) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """``(values, blocks)`` of a nondecreasing zero-free form's decoding table.

    ``values`` are the distinct entries ascending, ``blocks`` the variable
    labels of the equal-entry column groups; ``variables`` optionally
    relabels the columns (1-based), as needed after a stable sort moved
    them, and defaults to ``1..N`` in place.
    """
    ent = form.entries
    if any(a > b for a, b in zip(ent, ent[1:])):
        raise ValueError(f"{form} is not sorted nondecreasing")
    if 0 in ent:
        raise ValueError(f"{form} has zero entries, apply remove_zeros first")
    labels = tuple(variables) if variables is not None else tuple(range(1, form.N + 1))
    if sorted(labels) != list(range(1, form.N + 1)):
        raise ValueError(f"variable labels {labels} are not a permutation of 1..{form.N}")
    values: list[int] = []
    blocks: list[list[int]] = []
    for e, label in zip(ent, labels):
        if values and e == values[-1]:
            blocks[-1].append(label)
        else:
            values.append(e)
            blocks.append([label])
    return tuple(values), tuple(map(tuple, blocks))


def standard_permutation(form: CvForm) -> tuple[int, ...]:
    """Ranks of the entries, ties resolved left to right: ``entry - type + 1``."""
    return tuple(e - t + 1 for e, t in zip(form.entries, form.type_of()))


def leading_rowblock(class_entries) -> RowBlock:
    """Largest row-block of a class, read off without any expansion.

    The class entries themselves are the powers; bars fall between equal
    adjacent entries.  The variable partition is the canonical one of the
    class representative (the regular form with nondecreasing entries).
    """
    c = tuple(class_entries)
    if not valid_class(c):
        raise ValueError(f"{c} is not a valid class vector")
    blocks: list[list[int]] = [[c[0]]]
    variables: list[list[int]] = [[1]]
    for pos in range(1, len(c)):
        if c[pos] == c[pos - 1]:
            blocks.append([c[pos]])
            variables.append([pos + 1])
        else:
            blocks[-1].append(c[pos])
            variables[-1].append(pos + 1)
    return RowBlock(
        tuple(tuple(b) for b in blocks),
        tuple(tuple(v) for v in variables),
        1,
    )


def characteristic_monomial(rb: RowBlock) -> tuple[int, ...]:
    """Exponent vector of the diagonal monomial of a row-block.

    Within each minor the c-th variable takes the c-th power; the
    coefficient is discarded.
    """
    nvars = sum(len(b) for b in rb.var_partition)
    exps = [0] * nvars
    for powers, variables in zip(rb.blocks, rb.var_partition):
        for var, p in zip(variables, powers):
            exps[var - 1] = p
    return tuple(exps)
