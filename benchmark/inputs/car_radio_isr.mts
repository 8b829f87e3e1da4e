# Car radio: the dual-tuner chain's timer clocks must actually interrupt.
# Each core's ISR (pc 0..1) bumps r6 on every tick; after a bounded run the
# chain is still going (budget stop, not exit) and core 0 has serviced a
# healthy number of interrupts (empirically 1355 at 50k steps — pinned
# loosely so clock retuning doesn't churn this script).
platform car_radio
run 50000
expect stop budget
expect reg 0 6 >= 100
expect reg 1 6 >= 100
# The sample loop is making progress too (loop counter r1 is live).
expect reg 0 1 > 0
