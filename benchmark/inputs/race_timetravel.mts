# Race: two cores increment an unguarded counter at 0x40, 200 iterations
# each. Break at the loop head, prove step-back restores the exact pc,
# then run to completion: the deterministic interleaving loses every
# overlapping update, so the counter ends at 200, not 400.
platform race
time-travel 8 32
break 3
run
expect stop breakpoint
expect pc 0 == 3
step
step-back
expect pc 0 == 3
unbreak 3
run
expect stop exited
expect mem 0x40 == 200
