"""The runner of every row of halg.axioms' law and fill tables, generated
from those rows by `python -m halg._codegen`: do not edit.  RUNNERS maps a
row to (arity, degree, run, linear): its basis tuples' length, its degree
K, its runner, and the maps each of its terms applies exactly once."""

from operator import add, sub

from .linalg import apply_raw as app
from .linalg import bilinear_raw as mul


def _run0(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['dot~'][labs[1]]
        z0 = not any(b0)
        b1 = F['dot'][labs[0]]
        b3 = F['dot~'][labs[0]]
        z3 = not any(b3)
        b4 = F['dot'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b2[i0]) or not any(b4[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = mul(b3, b2[i0], b4[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run1(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['dot~'][labs[1]]
        z0 = not any(b0)
        b1 = F['dot'][labs[0]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z0 or not any(b2[i0]) or not any(b1[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = mul(b0, b2[i0], b1[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run2(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['dot~'][labs[1]]
        z0 = not any(b0)
        b1 = F['dot'][labs[0]]
        b3 = F['dot~'][labs[0]]
        z3 = not any(b3)
        b4 = F['dot'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b4[i0][i1]) or not any(b2[i2])) and (z3 or not any(b2[i0]) or not any(b4[i1][i2])) and (z0 or not any(b2[i0]) or not any(b1[i1][i2]))) and skip:
                continue
            s0 = list(map(add, mul(b0, b1[i0][i1], b2[i2]), mul(b3, b4[i0][i1], b2[i2])))
            s1 = list(map(add, mul(b3, b2[i0], b4[i1][i2]), mul(b0, b2[i0], b1[i1][i2])))
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run3(F, tuples, pts, every, R):
    b1 = F['p']
    Z = [0] * len(F["basis"])
    skip = not every
    for labs in tuples:
        b0 = F['bracket~'][labs[0]]
        z0 = not any(b0)
        b2 = F['bracket'][labs[1]]
        b3 = F['bracket~'][labs[1]]
        z3 = not any(b3)
        b4 = F['bracket'][labs[0]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0]) or not any(b2[i1][i2])) and (z3 or not any(b1[i1]) or not any(b4[i2][i0])) and (z3 or not any(b1[i2]) or not any(b4[i0][i1]))) and skip:
                continue
            s0 = list(map(add, map(add, mul(b0, b1[i0], b2[i1][i2]), mul(b3, b1[i1], b4[i2][i0])), mul(b3, b1[i2], b4[i0][i1])))
            s1 = Z
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run4(F, tuples, pts, every, R):
    b1 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['bracket~'][labs[1]]
        z0 = not any(b0)
        b2 = F['bracket'][labs[0]]
        b3 = F['bracket~'][labs[0]]
        z3 = not any(b3)
        b4 = F['bracket'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0]) or not any(b2[i1][i2])) and (z3 or not any(b1[i0]) or not any(b4[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0], b2[i1][i2])
            s1 = mul(b3, b1[i0], b4[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run5(F, tuples, pts, every, R):
    b1 = F['p']
    Z = [0] * len(F["basis"])
    skip = not every
    for labs in tuples:
        b0 = F['bracket~'][labs[1]]
        z0 = not any(b0)
        b2 = F['bracket'][labs[0]]
        b3 = F['bracket~'][labs[0]]
        z3 = not any(b3)
        b4 = F['bracket'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0]) or not any(b2[i1][i2])) and (z0 or not any(b1[i1]) or not any(b2[i2][i0])) and (z0 or not any(b1[i2]) or not any(b2[i0][i1])) and (z3 or not any(b1[i0]) or not any(b4[i1][i2])) and (z3 or not any(b1[i1]) or not any(b4[i2][i0])) and (z3 or not any(b1[i2]) or not any(b4[i0][i1]))) and skip:
                continue
            s0 = list(map(add, map(add, map(add, map(add, map(add, mul(b0, b1[i0], b2[i1][i2]), mul(b0, b1[i1], b2[i2][i0])), mul(b0, b1[i2], b2[i0][i1])), mul(b3, b1[i0], b4[i1][i2])), mul(b3, b1[i1], b4[i2][i0])), mul(b3, b1[i2], b4[i0][i1])))
            s1 = Z
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run6(F, tuples, pts, every, R):
    b1 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['star~'][labs[0]]
        z0 = not any(b0)
        b2 = F['star'][labs[1]]
        b3 = F['star~'][labs[1]]
        z3 = not any(b3)
        b4 = F['star'][labs[0]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0]) or not any(b2[i1][i2])) and (z3 or not any(b4[i0][i1]) or not any(b1[i2])) and (z3 or not any(b1[i1]) or not any(b4[i0][i2])) and (z0 or not any(b2[i1][i0]) or not any(b1[i2]))) and skip:
                continue
            s0 = list(map(sub, mul(b0, b1[i0], b2[i1][i2]), mul(b3, b4[i0][i1], b1[i2])))
            s1 = list(map(sub, mul(b3, b1[i1], b4[i0][i2]), mul(b0, b2[i1][i0], b1[i2])))
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run7(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['left~'][labs[1]]
        z0 = not any(b0)
        b1 = F['left'][labs[0]]
        b3 = F['left~'][labs[0]]
        z3 = not any(b3)
        b4 = F['left'][labs[1]]
        b5 = F['right'][labs[0]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b2[i0]) or not any(b4[i1][i2])) and (z0 or not any(b2[i0]) or not any(b5[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = list(map(add, mul(b3, b2[i0], b4[i1][i2]), mul(b0, b2[i0], b5[i1][i2])))
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run8(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['left~'][labs[1]]
        z0 = not any(b0)
        b1 = F['right'][labs[0]]
        b3 = F['right~'][labs[0]]
        z3 = not any(b3)
        b4 = F['left'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b2[i0]) or not any(b4[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = mul(b3, b2[i0], b4[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run9(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['right~'][labs[0]]
        z0 = not any(b0)
        b1 = F['left'][labs[1]]
        b3 = F['right~'][labs[1]]
        z3 = not any(b3)
        b4 = F['right'][labs[0]]
        b5 = F['right'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b4[i0][i1]) or not any(b2[i2])) and (z0 or not any(b2[i0]) or not any(b5[i1][i2]))) and skip:
                continue
            s0 = list(map(add, mul(b0, b1[i0][i1], b2[i2]), mul(b3, b4[i0][i1], b2[i2])))
            s1 = mul(b0, b2[i0], b5[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run10(F, tuples, pts, every, R):
    b2 = F['p']
    b6 = F['D']
    E = F["basis"]
    skip = not every
    for labs in tuples:
        b0 = F['right~'][labs[0]]
        z0 = not any(b0)
        b1 = F['left'][labs[1]]
        b3 = F['right~'][labs[1]]
        z3 = not any(b3)
        b4 = F['right'][labs[0]]
        b5 = F['right'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b4[i0][i1]) or not any(b2[i2])) and (z0 or not any(b5[i1][i2]))) and skip:
                continue
            s0 = list(map(add, mul(b0, b1[i0][i1], b2[i2]), mul(b3, b4[i0][i1], b2[i2])))
            s1 = [b6 * v for v in mul(b0, E[i0], b5[i1][i2])]
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run11(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['left~'][labs[1]]
        z0 = not any(b0)
        b1 = F['left'][labs[0]]
        b3 = F['left~'][labs[0]]
        z3 = not any(b3)
        b4 = F['left'][labs[1]]
        b5 = F['right'][labs[0]]
        b6 = F['middle'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b2[i0]) or not any(b4[i1][i2])) and (z0 or not any(b2[i0]) or not any(b5[i1][i2])) and (z3 or not any(b2[i0]) or not any(b6[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = list(map(add, map(add, mul(b3, b2[i0], b4[i1][i2]), mul(b0, b2[i0], b5[i1][i2])), mul(b3, b2[i0], b6[i1][i2])))
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run12(F, tuples, pts, every, R):
    b1 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['right~'][labs[0]]
        z0 = not any(b0)
        b2 = F['right'][labs[1]]
        b3 = F['left'][labs[1]]
        b4 = F['right~'][labs[1]]
        z4 = not any(b4)
        b5 = F['right'][labs[0]]
        b6 = F['middle'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0]) or not any(b2[i1][i2])) and (z0 or not any(b3[i0][i1]) or not any(b1[i2])) and (z4 or not any(b5[i0][i1]) or not any(b1[i2])) and (z0 or not any(b6[i0][i1]) or not any(b1[i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0], b2[i1][i2])
            s1 = list(map(add, map(add, mul(b0, b3[i0][i1], b1[i2]), mul(b4, b5[i0][i1], b1[i2])), mul(b0, b6[i0][i1], b1[i2])))
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run13(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['middle~'][labs[1]]
        z0 = not any(b0)
        b1 = F['right'][labs[0]]
        b3 = F['right~'][labs[0]]
        z3 = not any(b3)
        b4 = F['middle'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b2[i0]) or not any(b4[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = mul(b3, b2[i0], b4[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run14(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['middle~'][labs[1]]
        z0 = not any(b0)
        b1 = F['left'][labs[0]]
        b3 = F['right'][labs[0]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z0 or not any(b2[i0]) or not any(b3[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = mul(b0, b2[i0], b3[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run15(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['left~'][labs[1]]
        z0 = not any(b0)
        b1 = F['middle'][labs[0]]
        b3 = F['middle~'][labs[0]]
        z3 = not any(b3)
        b4 = F['left'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b2[i0]) or not any(b4[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = mul(b3, b2[i0], b4[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run16(F, tuples, pts, every, R):
    b2 = F['p']
    skip = not every
    for labs in tuples:
        b0 = F['middle~'][labs[1]]
        z0 = not any(b0)
        b1 = F['middle'][labs[0]]
        b3 = F['middle~'][labs[0]]
        z3 = not any(b3)
        b4 = F['middle'][labs[1]]
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z3 or not any(b2[i0]) or not any(b4[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = mul(b3, b2[i0], b4[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run17(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b1 = F['m']
    b2 = F['p']
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1]) or not any(b2[i2])) and (z0 or not any(b2[i0]) or not any(b1[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], b2[i2])
            s1 = mul(b0, b2[i0], b1[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run18(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b4 = F['m']
    E = F["basis"]
    skip = not every
    for labs in tuples:
        b1 = F['P'][labs[0]]
        b2 = F['P'][labs[1]]
        b3 = F['w'][labs[1]]
        for ix in pts:
            i0, i1, = ix
            if (held := (z0 or not any(b1[i0]) or not any(b2[i1])) and (z0 or not any(b2[i1])) and (z0 or not any(b1[i0])) and (not b3 or not any(b4[i0][i1]))) and skip:
                continue
            s0 = mul(b0, b1[i0], b2[i1])
            s1 = list(map(add, map(add, app(b1, mul(b0, E[i0], b2[i1])), app(b2, mul(b0, b1[i0], E[i1]))), [b3 * v for v in app(b1, b4[i0][i1])]))
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run19(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b1 = F['p']
    b2 = F['m']
    Z = [0] * len(F["basis"])
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0]) or not any(b2[i1][i2])) and (z0 or not any(b1[i1]) or not any(b2[i2][i0])) and (z0 or not any(b1[i2]) or not any(b2[i0][i1]))) and skip:
                continue
            s0 = list(map(add, map(add, mul(b0, b1[i0], b2[i1][i2]), mul(b0, b1[i1], b2[i2][i0])), mul(b0, b1[i2], b2[i0][i1])))
            s1 = Z
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run20(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b1 = F['m']
    E = F["basis"]
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i0][i1])) and (z0 or not any(b1[i1][i2]))) and skip:
                continue
            s0 = mul(b0, b1[i0][i1], E[i2])
            s1 = mul(b0, E[i0], b1[i1][i2])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run21(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b1 = F['m']
    E = F["basis"]
    Z = [0] * len(F["basis"])
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, i2, = ix
            if (held := (z0 or not any(b1[i1][i2])) and (z0 or not any(b1[i2][i0])) and (z0 or not any(b1[i0][i1]))) and skip:
                continue
            s0 = list(map(add, map(add, mul(b0, E[i0], b1[i1][i2]), mul(b0, E[i1], b1[i2][i0])), mul(b0, E[i2], b1[i0][i1])))
            s1 = Z
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run22(F, tuples, pts, every, R):
    b2 = F['f']
    b3 = F['D']
    skip = not every
    for labs in tuples:
        b0 = F[R][labs[0]]
        b1 = F[R + '~'][labs[0]]
        z1 = not any(b1)
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (z1 or not any(b2[i0]) or not any(b2[i1]))) and skip:
                continue
            s0 = [b3 * v for v in app(b2, b0[i0][i1])]
            s1 = mul(b1, b2[i0], b2[i1])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run23(F, tuples, pts, every, R):
    b1 = F['f']
    skip = not every
    for labs in tuples:
        b0 = F['P'][labs[0]]
        for ix in pts:
            i0, = ix
            if (held := (not any(b0[i0])) and (not any(b1[i0]))) and skip:
                continue
            s0 = app(b1, b0[i0])
            s1 = app(b0, b1[i0])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run24(F, tuples, pts, every, R):
    b2 = F['f']
    E = F["basis"]
    skip = not every
    for labs in tuples:
        b0 = F[R][labs[0]]
        b1 = F[R + '~'][labs[0]]
        z1 = not any(b1)
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (z1 or not any(b2[i0]))) and skip:
                continue
            s0 = app(b2, b0[i0][i1])
            s1 = mul(b1, b2[i0], E[i1])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run25(F, tuples, pts, every, R):
    b2 = F['f']
    E = F["basis"]
    skip = not every
    for labs in tuples:
        b0 = F[R][labs[0]]
        b1 = F[R + '~'][labs[0]]
        z1 = not any(b1)
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (z1 or not any(b2[i0])) and (z1 or not any(b2[i1]))) and skip:
                continue
            s0 = app(b2, b0[i0][i1])
            s1 = mul(b1, b2[i0], E[i1])
            s2 = mul(b1, E[i0], b2[i1])
            if every or s0 != s1 or s0 != s2:
                yield labs, ix, held, (s0, s1, s2,)


def _run26(F, tuples, pts, every, R):
    b2 = F['f']
    b3 = F['D']
    skip = not every
    for labs in tuples:
        b0 = F[R][labs[0]]
        b1 = F[R + '2~'][labs[0]]
        z1 = not any(b1)
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (z1 or not any(b2[i0]) or not any(b2[i1]))) and skip:
                continue
            s0 = [b3 * v for v in app(b2, b0[i0][i1])]
            s1 = mul(b1, b2[i0], b2[i1])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run27(F, tuples, pts, every, R):
    b0 = F['f']
    b1 = F['p']
    b2 = F['p2']
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, = ix
            if (held := (not any(b0[i0])) and (not any(b1[i0]))) and skip:
                continue
            s0 = app(b2, b0[i0])
            s1 = app(b0, b1[i0])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run28(F, tuples, pts, every, R):
    b1 = F['f']
    skip = not every
    for labs in tuples:
        b0 = F['P'][labs[0]]
        b2 = F['P2'][labs[0]]
        for ix in pts:
            i0, = ix
            if (held := (not any(b0[i0])) and (not any(b1[i0]))) and skip:
                continue
            s0 = app(b1, b0[i0])
            s1 = app(b2, b1[i0])
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run29(F, tuples, pts, every, R):
    skip = not every
    for labs in tuples:
        b0 = F[R][labs[0]]
        b1 = F[R + '2'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (not any(b1[i0][i1]))) and skip:
                continue
            s0 = b0[i0][i1]
            s1 = b1[i0][i1]
            if every or s0 != s1:
                yield labs, ix, held, (s0, s1,)


def _run30(F, tuples, pts, every, R):
    b0 = F['m']
    b1 = F['f']
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1]))) and skip:
                continue
            s0 = app(b1, b0[i0][i1])
            if every:
                yield labs, ix, held, (s0,)


def _run31(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b1 = F['f']
    E = F["basis"]
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, = ix
            if (held := (z0 or not any(b1[i0]))) and skip:
                continue
            s0 = mul(b0, b1[i0], E[i1])
            if every:
                yield labs, ix, held, (s0,)


def _run32(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b1 = F['f']
    E = F["basis"]
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, = ix
            if (held := (z0 or not any(b1[i1]))) and skip:
                continue
            s0 = mul(b0, E[i0], b1[i1])
            if every:
                yield labs, ix, held, (s0,)


def _run33(F, tuples, pts, every, R):
    b0 = F['m']
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i1][i0]))) and skip:
                continue
            s0 = b0[i1][i0]
            if every:
                yield labs, ix, held, (s0,)


def _run34(F, tuples, pts, every, R):
    b0 = F['m']
    b1 = F['g']
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1]))) and skip:
                continue
            s0 = app(b1, b0[i0][i1])
            if every:
                yield labs, ix, held, (s0,)


def _run35(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b1 = F['f']
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, = ix
            if (held := (z0 or not any(b1[i0]) or not any(b1[i1]))) and skip:
                continue
            s0 = mul(b0, b1[i0], b1[i1])
            if every:
                yield labs, ix, held, (s0,)


def _run36(F, tuples, pts, every, R):
    skip = not every
    for labs in tuples:
        b0 = F['dot'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (not any(b0[i1][i0]))) and skip:
                continue
            s0 = list(map(sub, b0[i0][i1], b0[i1][i0]))
            if every:
                yield labs, ix, held, (s0,)


def _run37(F, tuples, pts, every, R):
    b0 = F['m']
    skip = not every
    for labs in tuples:
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (not any(b0[i1][i0]))) and skip:
                continue
            s0 = list(map(sub, b0[i0][i1], b0[i1][i0]))
            if every:
                yield labs, ix, held, (s0,)


def _run38(F, tuples, pts, every, R):
    skip = not every
    for labs in tuples:
        b0 = F['star'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (not any(b0[i1][i0]))) and skip:
                continue
            s0 = list(map(sub, b0[i0][i1], b0[i1][i0]))
            if every:
                yield labs, ix, held, (s0,)


def _run39(F, tuples, pts, every, R):
    b1 = F['f']
    skip = not every
    for labs in tuples:
        b0 = F['left'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1]))) and skip:
                continue
            s0 = app(b1, b0[i0][i1])
            if every:
                yield labs, ix, held, (s0,)


def _run40(F, tuples, pts, every, R):
    b1 = F['f']
    skip = not every
    for labs in tuples:
        b0 = F['middle'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1]))) and skip:
                continue
            s0 = app(b1, b0[i0][i1])
            if every:
                yield labs, ix, held, (s0,)


def _run41(F, tuples, pts, every, R):
    b1 = F['f']
    skip = not every
    for labs in tuples:
        b0 = F['right'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1]))) and skip:
                continue
            s0 = app(b1, b0[i0][i1])
            if every:
                yield labs, ix, held, (s0,)


def _run42(F, tuples, pts, every, R):
    skip = not every
    for labs in tuples:
        b0 = F['left'][labs[0]]
        b1 = F['right'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (not any(b1[i0][i1]))) and skip:
                continue
            s0 = list(map(add, b0[i0][i1], b1[i0][i1]))
            if every:
                yield labs, ix, held, (s0,)


def _run43(F, tuples, pts, every, R):
    skip = not every
    for labs in tuples:
        b0 = F['left'][labs[0]]
        b1 = F['middle'][labs[0]]
        b2 = F['right'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (not any(b1[i0][i1])) and (not any(b2[i0][i1]))) and skip:
                continue
            s0 = list(map(add, map(add, b0[i0][i1], b1[i0][i1]), b2[i0][i1]))
            if every:
                yield labs, ix, held, (s0,)


def _run44(F, tuples, pts, every, R):
    skip = not every
    for labs in tuples:
        b0 = F['right'][labs[0]]
        b1 = F['left'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not any(b0[i0][i1])) and (not any(b1[i1][i0]))) and skip:
                continue
            s0 = list(map(sub, b0[i0][i1], b1[i1][i0]))
            if every:
                yield labs, ix, held, (s0,)


def _run45(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b3 = F['m']
    E = F["basis"]
    skip = not every
    for labs in tuples:
        b1 = F['P'][labs[0]]
        b2 = F['w'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (z0 or not any(b1[i1])) and (not b2 or not any(b3[i0][i1]))) and skip:
                continue
            s0 = list(map(add, mul(b0, E[i0], b1[i1]), [b2 * v for v in b3[i0][i1]]))
            if every:
                yield labs, ix, held, (s0,)


def _run46(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    E = F["basis"]
    skip = not every
    for labs in tuples:
        b1 = F['P'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (z0 or not any(b1[i0]))) and skip:
                continue
            s0 = mul(b0, b1[i0], E[i1])
            if every:
                yield labs, ix, held, (s0,)


def _run47(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    E = F["basis"]
    skip = not every
    for labs in tuples:
        b1 = F['P'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (z0 or not any(b1[i1]))) and skip:
                continue
            s0 = mul(b0, E[i0], b1[i1])
            if every:
                yield labs, ix, held, (s0,)


def _run48(F, tuples, pts, every, R):
    b1 = F['m']
    skip = not every
    for labs in tuples:
        b0 = F['w'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (not b0 or not any(b1[i0][i1]))) and skip:
                continue
            s0 = [b0 * v for v in b1[i0][i1]]
            if every:
                yield labs, ix, held, (s0,)


def _run49(F, tuples, pts, every, R):
    b0 = F['m~']
    z0 = not any(b0)
    b3 = F['m']
    E = F["basis"]
    skip = not every
    for labs in tuples:
        b1 = F['P'][labs[0]]
        b2 = F['w'][labs[0]]
        for ix in pts:
            i0, i1, = ix
            if (held := (z0 or not any(b1[i0])) and (not b2 or not any(b3[i1][i0]))) and skip:
                continue
            s0 = list(map(sub, map(sub, mul(b0, b1[i0], E[i1]), mul(b0, E[i1], b1[i0])), [b2 * v for v in b3[i1][i0]]))
            if every:
                yield labs, ix, held, (s0,)


RUNNERS = {
    ('matching-hom-assoc', 'ab', 'dot.b(dot.a(X, Y), p(Z))', ('dot.a(p(X), dot.b(Y, Z))',), None):
        (3, 3, _run0, ('dot.a', 'dot.b', 'p')),
    ('totally-compatible-hom-assoc', 'ab', 'dot.b(dot.a(X, Y), p(Z))', ('dot.b(p(X), dot.a(Y, Z))',), None):
        (3, 3, _run1, ('dot.a', 'dot.b', 'p')),
    ('compatible-hom-assoc', 'ab', 'dot.b(dot.a(X, Y), p(Z)) + dot.a(dot.b(X, Y), p(Z))', ('dot.a(p(X), dot.b(Y, Z)) + dot.b(p(X), dot.a(Y, Z))',), None):
        (3, 3, _run2, ('dot.a', 'dot.b', 'p')),
    ('matching-hom-jacobi', 'ab', 'bracket.a(p(X), bracket.b(Y, Z)) + bracket.b(p(Y), bracket.a(Z, X)) + bracket.b(p(Z), bracket.a(X, Y))', ('0',), None):
        (3, 3, _run3, ('bracket.a', 'bracket.b', 'p')),
    ('mhl-symmetry', 'ab', 'bracket.b(p(X), bracket.a(Y, Z))', ('bracket.a(p(X), bracket.b(Y, Z))',), 'verbose'):
        (3, 3, _run4, ('bracket.a', 'bracket.b', 'p')),
    ('compatible-hom-jacobi', 'ab', 'bracket.b(p(X), bracket.a(Y, Z)) + bracket.b(p(Y), bracket.a(Z, X)) + bracket.b(p(Z), bracket.a(X, Y)) + bracket.a(p(X), bracket.b(Y, Z)) + bracket.a(p(Y), bracket.b(Z, X)) + bracket.a(p(Z), bracket.b(X, Y))', ('0',), None):
        (3, 3, _run5, ('bracket.a', 'bracket.b', 'p')),
    ('matching-hom-prelie', 'ab', 'star.a(p(X), star.b(Y, Z)) - star.b(star.a(X, Y), p(Z))', ('star.b(p(Y), star.a(X, Z)) - star.a(star.b(Y, X), p(Z))',), None):
        (3, 3, _run6, ('p', 'star.a', 'star.b')),
    ('dendriform-1', 'ab', 'left.b(left.a(X, Y), p(Z))', ('left.a(p(X), left.b(Y, Z)) + left.b(p(X), right.a(Y, Z))',), None):
        (3, 3, _run7, ('left.b', 'p')),
    ('dendriform-2', 'ab', 'left.b(right.a(X, Y), p(Z))', ('right.a(p(X), left.b(Y, Z))',), None):
        (3, 3, _run8, ('left.b', 'p', 'right.a')),
    ('dendriform-3', 'ab', 'right.a(left.b(X, Y), p(Z)) + right.b(right.a(X, Y), p(Z))', ('right.a(p(X), right.b(Y, Z))',), 'dendriform-axiom3-twist'):
        (3, 3, _run9, ('p', 'right.a')),
    ('dendriform-3', 'ab', 'right.a(left.b(X, Y), p(Z)) + right.b(right.a(X, Y), p(Z))', ('right.a(X, right.b(Y, Z))',), '!dendriform-axiom3-twist'):
        (3, 3, _run10, ('right.a',)),
    ('tridendriform-1', 'ab', 'left.b(left.a(X, Y), p(Z))', ('left.a(p(X), left.b(Y, Z)) + left.b(p(X), right.a(Y, Z)) + left.a(p(X), middle.b(Y, Z))',), None):
        (3, 3, _run11, ('p',)),
    ('tridendriform-2', 'ab', 'left.b(right.a(X, Y), p(Z))', ('right.a(p(X), left.b(Y, Z))',), None):
        (3, 3, _run8, ('left.b', 'p', 'right.a')),
    ('tridendriform-3', 'ab', 'right.a(p(X), right.b(Y, Z))', ('right.a(left.b(X, Y), p(Z)) + right.b(right.a(X, Y), p(Z)) + right.a(middle.b(X, Y), p(Z))',), None):
        (3, 3, _run12, ('p', 'right.a')),
    ('tridendriform-4', 'ab', 'middle.b(right.a(X, Y), p(Z))', ('right.a(p(X), middle.b(Y, Z))',), None):
        (3, 3, _run13, ('middle.b', 'p', 'right.a')),
    ('tridendriform-5', 'ab', 'middle.b(left.a(X, Y), p(Z))', ('middle.b(p(X), right.a(Y, Z))',), None):
        (3, 3, _run14, ('middle.b', 'p')),
    ('tridendriform-6', 'ab', 'left.b(middle.a(X, Y), p(Z))', ('middle.a(p(X), left.b(Y, Z))',), None):
        (3, 3, _run15, ('left.b', 'middle.a', 'p')),
    ('tridendriform-7', 'ab', 'middle.b(middle.a(X, Y), p(Z))', ('middle.a(p(X), middle.b(Y, Z))',), None):
        (3, 3, _run16, ('middle.a', 'middle.b', 'p')),
    ('hom-assoc', '', 'm(m(X, Y), p(Z))', ('m(p(X), m(Y, Z))',), None):
        (3, 3, _run17, ('p',)),
    ('matching-rb', 'ab', 'm(P.a(X), P.b(Y))', ('P.a(m(X, P.b(Y))) + P.b(m(P.a(X), Y)) + w.b(P.a(m(X, Y)))',), None):
        (2, 3, _run18, ('P.a', 'm')),
    ('hom-jacobi', '', 'm(p(X), m(Y, Z)) + m(p(Y), m(Z, X)) + m(p(Z), m(X, Y))', ('0',), None):
        (3, 3, _run19, ('p',)),
    ('hom-assoc', '', 'm(m(X, Y), Z)', ('m(X, m(Y, Z))',), None):
        (3, 2, _run20, ()),
    ('hom-jacobi', '', 'm(X, m(Y, Z)) + m(Y, m(Z, X)) + m(Z, m(X, Y))', ('0',), None):
        (3, 2, _run21, ()),
    ('endomorphism', 'a', 'f(m.a(X, Y))', ('m.a(f(X), f(Y))',), None):
        (2, 3, _run22, ('m.a',)),
    ('multiplicative', 'a', 'f(m.a(X, Y))', ('m.a(f(X), f(Y))',), None):
        (2, 3, _run22, ('m.a',)),
    ('commutes', 'a', 'f(P.a(X))', ('P.a(f(X))',), None):
        (1, 2, _run23, ('P.a', 'f')),
    ('centroid', 'a', 'f(m.a(X, Y))', ('m.a(f(X), Y)',), 'alternating'):
        (2, 2, _run24, ('f', 'm.a')),
    ('centroid', 'a', 'f(m.a(X, Y))', ('m.a(f(X), Y)', 'm.a(X, f(Y))'), '!alternating'):
        (2, 2, _run25, ('f', 'm.a')),
    ('morphism-{role}', 'a', 'f(m.a(X, Y))', ('m2.a(f(X), f(Y))',), None):
        (2, 3, _run26, ()),
    ('twist-intertwine', '', 'p2(f(X))', ('f(p(X))',), None):
        (1, 2, _run27, ('f',)),
    ('operator-intertwine', 'a', 'f(P.a(X))', ('P2.a(f(X))',), None):
        (1, 2, _run28, ('f',)),
    ('diagram-{role}', 'a', 'm.a(X, Y)', ('m2.a(X, Y)',), None):
        (2, 1, _run29, ()),
    ('fill', 'a', 'f(m(X, Y))', (), None):
        (2, 2, _run30, ('f', 'm')),
    ('fill', 'a', 'm(f(X), Y)', (), None):
        (2, 2, _run31, ('f', 'm')),
    ('fill', 'a', 'm(X, f(Y))', (), None):
        (2, 2, _run32, ('f', 'm')),
    ('fill', 'a', 'm(Y, X)', (), None):
        (2, 1, _run33, ('m',)),
    ('fill', 'a', 'g(m(X, Y))', (), None):
        (2, 2, _run34, ('g', 'm')),
    ('fill', 'a', 'm(f(X), f(Y))', (), None):
        (2, 3, _run35, ('m',)),
    ('fill', 'a', 'dot.a(X, Y) - dot.a(Y, X)', (), None):
        (2, 1, _run36, ('dot.a',)),
    ('fill', 'a', 'm(X, Y) - m(Y, X)', (), None):
        (2, 1, _run37, ('m',)),
    ('fill', 'a', 'star.a(X, Y) - star.a(Y, X)', (), None):
        (2, 1, _run38, ('star.a',)),
    ('fill', 'a', 'f(left.a(X, Y))', (), None):
        (2, 2, _run39, ('f', 'left.a')),
    ('fill', 'a', 'f(middle.a(X, Y))', (), None):
        (2, 2, _run40, ('f', 'middle.a')),
    ('fill', 'a', 'f(right.a(X, Y))', (), None):
        (2, 2, _run41, ('f', 'right.a')),
    ('fill', 'a', 'left.a(X, Y) + right.a(X, Y)', (), None):
        (2, 1, _run42, ()),
    ('fill', 'a', 'left.a(X, Y) + middle.a(X, Y) + right.a(X, Y)', (), None):
        (2, 1, _run43, ()),
    ('fill', 'a', 'right.a(X, Y) - left.a(Y, X)', (), None):
        (2, 1, _run44, ()),
    ('fill', 'a', 'm(X, P.a(Y)) + w.a(m(X, Y))', (), None):
        (2, 2, _run45, ('m',)),
    ('fill', 'a', 'm(P.a(X), Y)', (), None):
        (2, 2, _run46, ('P.a', 'm')),
    ('fill', 'a', 'm(X, P.a(Y))', (), None):
        (2, 2, _run47, ('P.a', 'm')),
    ('fill', 'a', 'w.a(m(X, Y))', (), None):
        (2, 2, _run48, ('m', 'w.a')),
    ('fill', 'a', 'm(P.a(X), Y) - m(Y, P.a(X)) - w.a(m(Y, X))', (), None):
        (2, 2, _run49, ('m',)),
}
