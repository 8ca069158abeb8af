"""Small fully-enumerable benchmarks used by brute-force oracles."""

# Every control point is read under the depth-3 input set, and exactly one
# total assignment passes: Z must encode to FalseV and S1 must wrap NotV.
PARITY = """
adt nat { Z {} S1 { nat p; } }
adt flag { TrueV {} FalseV {} NotV { flag b; } }

int parity(nat x) {
  switch (x) {
    case Z: return 0;
    case S1: if (parity(x.p) != 0) { return 0; } else { return 1; }
  }
}

int flagRun(flag f) {
  switch (f) {
    case TrueV: return 1;
    case FalseV: return 0;
    case NotV: if (flagRun(f.b) != 0) { return 0; } else { return 1; }
  }
}

flag encode(nat x) {
  switch (x) {
    case Z: return choose(new TrueV(), new FalseV());
    case S1: return choose(new NotV(b = encode(x.p)), new TrueV(), new FalseV());
  }
}

harness void main(nat x) {
  assert(parity(x) == flagRun(encode(x)));
}
"""

# List copy that must add one to every head; the nil-arm hole is unread in
# passing assignments, so the passing set has more than one element.
SHIFT = """
adt slist { SNil {} SCons { int h; slist t; } }
adt dlist { DNil {} DCons { int h; dlist t; } }

int sumS(slist l) {
  switch (l) {
    case SNil: return 0;
    case SCons: return l.h + 1 + sumS(l.t);
  }
}

int sumD(dlist l) {
  switch (l) {
    case DNil: return 0;
    case DCons: return l.h + sumD(l.t);
  }
}

dlist shift(slist l) {
  switch (l) {
    case SNil: return choose(new DNil(), new DCons(h = ??, t = new DNil()));
    case SCons: return new DCons(h = l.h + ??, t = choose(shift(l.t), new DNil()));
  }
}

harness void main(slist l) {
  assert(sumS(l) == sumD(shift(l)));
}
"""

# Generalized inductive shape: the lowering threads an environment value
# that must satisfy g = ident(s) for the decomposition rewrite to fire.
GAMMA = """
adt expr2 { Num2 { int v; } Var2 {} Add2 { expr2 a; expr2 b; } }
adt dexpr { DNum { int v; } DVar {} DAdd { dexpr a; dexpr b; } }

int runS(expr2 e, int s) {
  switch (e) {
    case Num2: return e.v;
    case Var2: return s;
    case Add2: return runS(e.a, s) + runS(e.b, s);
  }
}

int runD(dexpr e, int s) {
  switch (e) {
    case DNum: return e.v;
    case DVar: return s;
    case DAdd: return runD(e.a, s) + runD(e.b, s);
  }
}

int ident(int s) {
  return s;
}

dexpr conv(expr2 e, int g) {
  switch (e) {
    case Num2: return new DNum(v = e.v);
    case Var2: return choose(new DVar(), new DNum(v = g));
    case Add2: return new DAdd(a = conv(e.a, g), b = conv(e.b, g));
  }
}

@abstracts(ident, s, g)
harness void main(expr2 e, int s) {
  int g = ident(s);
  assert(runS(e, s) == runD(conv(e, g), s));
}
"""

# The right operand of `||` asserts on `Z`, but the left one already holds,
# so every input passes.
SHORT_CIRCUIT = """
adt e { Z {} S { e p; } }
generator int isZ(e x) { switch (x) { case Z: assert(0 == 1); return 1; case S: return 0; } }
harness void main(e x) { assert(1 == 1 || isZ(x) == 1); }
"""

# The self-call of `copy` lies in an instance of `maybe` that stays a `_Use`
# in a choice arm of `pick`, so classification sees it through the
# template, and decomposition copies that instance out to box it.
LAZY_SELF_CALL = """
adt slist { SNil {} SCons { int h; slist t; } }
adt dlist { DNil {} DCons { int h; dlist t; } }

int slen(slist x) {
  switch (x) {
    case SNil: return 0;
    case SCons: return 1 + slen(x.t);
  }
}

int dlen(dlist x) {
  switch (x) {
    case DNil: return 0;
    case DCons: return 1 + dlen(x.t);
  }
}

generator dlist maybe(fun e) { return choose(new DNil(), e()); }

generator dlist pick(fun e) { return choose(new DNil(), maybe(e)); }

dlist copy(slist x) {
  switch (x) {
    case SNil: return new DNil();
    case SCons: return new DCons(h = x.h, t = pick(copy(x.t)));
  }
}

harness void main(slist x) {
  assert(slen(x) == dlen(copy(x)));
}
"""

# The following toys each run a path of the compiler that the programs
# above do not.

# The second arm of the `S1` choice needs statements (the `let` of the
# inlined `wrap`), so the choice compiles to an if/elif block on its read.
CHOICE_STATEMENTS = """
adt nat { Z {} S1 { nat p; } }
adt flag { TrueV {} FalseV {} NotV { flag b; } }

int parity(nat x) {
  switch (x) {
    case Z: return 0;
    case S1: if (parity(x.p) != 0) { return 0; } else { return 1; }
  }
}

int flagRun(flag f) {
  switch (f) {
    case TrueV: return 1;
    case FalseV: return 0;
    case NotV: if (flagRun(f.b) != 0) { return 0; } else { return 1; }
  }
}

generator flag wrap(fun e) {
  flag r = e();
  return new NotV(b = r);
}

flag encode(nat x) {
  switch (x) {
    case Z: return choose(new TrueV(), new FalseV());
    case S1: return choose(new TrueV(), wrap(encode(x.p)));
  }
}

harness void main(nat x) {
  assert(parity(x) == flagRun(encode(x)));
}
"""

# `==` on ADT values, which compares them structurally: in the harness,
# and in `runB`, where the decomposed program makes the field a box, which
# `==` forces.  The shortcut in `runB` gives what its last line would.
ADT_EQ = """
adt nat { Z {} S1 { nat p; } }
adt bits { BZ {} BS { bits p; } }

nat idS(nat x) {
  switch (x) {
    case Z: return new Z();
    case S1: return new S1(p = idS(x.p));
  }
}

nat runB(bits b) {
  switch (b) {
    case BZ: return new Z();
    case BS:
      if (b.p == new BS(p = new BZ())) {
        return new S1(p = new S1(p = new Z()));
      } else {
        return new S1(p = runB(b.p));
      }
  }
}

bits conv(nat x) {
  switch (x) {
    case Z: return choose(new BS(p = new BZ()), new BZ());
    case S1: return choose(new BZ(), new BS(p = conv(x.p)));
  }
}

harness void main(nat x) {
  assert(idS(x) == runB(conv(x)));
}
"""

# `!` as a value: returned, and as an operand of `==`; and, in the second
# assertion, as a condition.
NOT_VALUE = """
adt nat { Z {} S1 { nat p; } }

bit even(nat x) {
  switch (x) {
    case Z: return 1;
    case S1: return !even(x.p);
  }
}

bit odd(nat x) {
  switch (x) {
    case Z: return !??;
    case S1: return choose(odd(x.p), !odd(x.p));
  }
}

harness void main(nat x) {
  assert(odd(x) == !even(x));
  assert(!(odd(x) == even(x)));
}
"""

# The second arm is an array literal whose first element fails at once,
# so the arm fails at once.
ARRAY_HEAD_FAIL = """
adt nat { Z {} S1 { nat p; } }
int count(nat x) { switch (x) { case Z: return 0; case S1: return 1 + count(x.p); } }

harness void main(nat x) {
  int k = ??;
  int[] a = choose({count(x) + k}, {unreachable<int>, count(x)});
  assert(a[0] == count(x) + 1);
}
"""

# As `ARRAY_HEAD_FAIL`, but the second element needs statements (the `let`
# of the inlined `counted`), so the failing first one is spilled to a
# temporary ahead of them, and that temporary fails at once.
SPILLED_FAIL = """
adt nat { Z {} S1 { nat p; } }
int count(nat x) { switch (x) { case Z: return 0; case S1: return 1 + count(x.p); } }

generator int counted(nat x) {
  int c = count(x);
  return c;
}

harness void main(nat x) {
  int k = ??;
  int[] a = choose({count(x) + k}, {unreachable<int>, counted(x)});
  assert(a[0] == count(x) + 1);
}
"""

# As `GAMMA`, but `runD` compares its left operand with a literal tree
# before it adds: the decomposed program makes that operand a box with an
# environment value, which `==` forces through the lowering.  The shortcut
# gives what the sum would.
GAMMA_EQ = GAMMA.replace(
    "case DAdd: return runD(e.a, s) + runD(e.b, s);",
    "case DAdd:\n"
    "      if (e.a == new DNum(v = 0)) { return runD(e.b, s); }\n"
    "      else { return runD(e.a, s) + runD(e.b, s); }",
)

# `guess` holds a choice and eight control points, so its instance in a
# choice arm of `pick` stays a `_Use`, compiled on its first run; it calls
# the recursive `count`, which `walk` then reaches only through it.
LAZY_CALL = """
adt nat { Z {} S1 { nat p; } }

int count(nat x) {
  switch (x) {
    case Z: return 0;
    case S1: return 1 + count(x.p);
  }
}

generator int guess(nat x) {
  return choose(count(x) + ??, count(x) - ??, ??, count(x) * ??, count(x) + ?? * ??, ?? - count(x));
}

generator int pick(nat x, int k) {
  return choose(k, guess(x));
}

int walk(nat x) {
  switch (x) {
    case Z: return 0;
    case S1: return 1 + pick(x.p, walk(x.p));
  }
}

harness void main(nat x) {
  assert(walk(x) == count(x));
}
"""
