# Regression corpus: 'guarded' program shrunk from 'repro fuzz --budget 11
# --seed 630003'. Speculation hoisted a register write above an earlier
# write to the same register that stayed behind (mem-mismatch in
# speculative, combined and safe-speculative).
main:
    li r1, 86
    li r2, 12
    li r3, 115
    li r4, 0
    li r5, 37
    li r6, 25
    li r7, 83
    li r8, 19
    li r18, 16
loop_head:
    bne r13, r12, then_0
    j join_0
then_0:
    sw r5, 0(r16)
    sll r5, r5, 2
    cmple cc2, r11, r11
    lw r6, 0(r16)
join_0:
    li r12, 74
join_1:
then_1:
    sub r9, r6, r10
    bgtz r5, then_2
    j join_2
then_2:
    sll r11, r3, 3
    cmpeq cc1, r11, r11
    cmple cc1, r14, r10
    (!cc1) addi r9, r9, -4
join_2:
    (cc2) sub r14, r14, r9
    addi r17, r17, 1
    bne r17, r18, loop_head
    sw r9, 32(r16)
    halt
