# JPEG: the block DMA must be the first writer into the frame-buffer
# destination region [2048, 2112). A write watchpoint over the region
# stops on the temporally first faulting access — the stream's first word
# at exactly 2048 (0x800).
platform jpeg
watch write 2048 64
run
expect stop watchpoint
expect watch-addr == 0x800
# The word the DMA just copied came from the zero-initialised source.
expect mem 0x800 == 0
unwatch write 2048 64
