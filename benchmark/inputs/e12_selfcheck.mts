# E12 fault target, fault-free: the redundant computation must agree and
# the DMA-streamed block must verify. Detect flag (0x210) stays clear and
# the 32-word destination block sums to the golden 848.
platform e12
budget 200000
run
expect stop exited
expect mem 0x210 == 0
expect sum 0x240 32 == 848
# Core 0 saw at least one timer tick along the way.
expect reg 0 6 >= 1
