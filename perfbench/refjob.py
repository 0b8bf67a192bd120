"""A fixed reference program, timed between the benchmark's jobs.

It does the kinds of work a `supvar` job does: an interpreter start, the
numpy import, and a short Python loop with small numpy fancy indexing.  It
never touches `supvar`, so no change to the program can change its time.
Only the host's momentary speed changes it.  The benchmark divides each job's
times by the reference times measured around it.
"""

import numpy as np

a = np.arange(144, dtype=np.int32).reshape(12, 12)
table = np.arange(81, dtype=np.int32).reshape(9, 9)
acc = 0
seen = {}
for i in range(60000):
    acc += (i * i) % 7
    seen[(i & 1023, acc & 7)] = acc
    if i % 20 == 0:
        b = table[a[:9, :9] % 9, 3] + a[2:11, :9]
        acc += int(b[0, 0])
