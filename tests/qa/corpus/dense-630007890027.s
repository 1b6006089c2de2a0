# Regression corpus: 'dense' program shrunk from 'repro fuzz --budget 11
# --seed 630006'. Speculation hoisted a register write above an earlier
# write to the same register that stayed behind (mem-mismatch in
# speculative, combined and safe-speculative).
    li r6, 62
    li r8, -11
    li r18, 17
loop_head:
    andi r4, r14, 252
    bgtz r4, then_2
    cmple cc2, r11, r6
    (!cc2) addi r13, r13, 4
    j join_2
then_2:
    sub r13, r15, r11
    andi r7, r13, 252
    andi r7, r6, 252
    add r16, r16, r7
    sw r6, 0(r16)
join_2:
    add r14, r8, r8
    addi r17, r17, 1
    bne r17, r18, loop_head
    halt
