"""Recovery mechanisms (the right-hand column of Table 1).

"While there are many mechanisms readily available for fast recovery
(e.g., microrebooting misbehaving components, killing runaway queries),
there is a dearth of suitable policies to invoke these mechanisms
automatically" (Section 1).  This package supplies the mechanisms; the
policies live in :mod:`repro.core`.

Every fix is an object with a ``kind`` (the class label FixSym
predicts), an optional target, an application cost in ticks, and an
``apply`` method that acts on a live :class:`MultitierService`.
"""
