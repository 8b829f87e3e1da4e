# Declarative-platform scenario: load the car-radio hardware from its
# committed .soc description (mpsoc-pdl), install the standard car_radio
# software image, and re-run the ISR liveness checks — proving the
# language front end produces debuggable platforms equivalent to the
# hand-built registry entry (tests/soc_roundtrip.rs pins bit-identity).
platform benchmark/inputs/car_radio.soc car_radio
run 50000
expect stop budget
expect reg 0 6 >= 100
expect reg 1 6 >= 100
expect reg 0 1 > 0
