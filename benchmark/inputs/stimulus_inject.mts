# Stimulus injection rides the monitor `stimulus-record` path: each
# injection applies immediately AND lands in the replayable stimulus log.
# Poked memory and written signals are observable at once, and the
# perturbed run still reaches its clean verdict (the poke targets an
# unused word).
platform e12
step 10
inject poke 0x300 7
inject signal test_flag 3
expect mem 0x300 == 7
expect sig test_flag == 3
budget 200000
run
expect stop exited
expect mem 0x210 == 0
