# E9 / Section VII: scripted system-level assertions, "without changing
# the software code". Each `assert` is checked at once and then after
# every platform step, over state no single core can see: shared memory,
# both cores' registers, peripheral registers, simulated time.
platform race
# Two cores x 200 unprotected increments: the race loses updates, it
# never gains any.
assert counter_bounded mem(0x40) <= 400
# Both cores stay inside their nine-instruction program (a halted core
# rests one past its `halt`).
assert in_code pc(0) <= 9 && pc(1) <= 9
step 5
assert clock_runs now() > 0
# Core 0 still has iterations to go (r5 counts down), or it has already
# published its first increment.
assert progress reg(0, 5) > 0 || mem(0x40) > 0
run
expect stop exited
expect mem 0x40 <= 400

# A platform with peripherals: the handoff mailbox (page 1: register 1 =
# fill level, register 2 = capacity) never overflows, and the detect flag
# of the redundant computation stays clear at every step, not only at
# the end.
platform e12
budget 200000
assert handoff_fits periph(1, 2) == 16 && periph(1, 1) <= periph(1, 2)
assert never_detects mem(0x210) == 0
run
expect stop exited
expect sum 0x240 32 == 848
