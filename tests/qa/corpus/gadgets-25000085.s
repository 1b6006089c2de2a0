# Regression corpus: 'gadgets' program shrunk from 'repro fuzz --budget 11
# --seed 25'. Speculation hoisted a register write above an earlier
# write to the same register that stayed behind (mem-mismatch in
# speculative, combined and safe-speculative).
main:
    li r1, -17
    li r2, 65
    li r3, -38
    li r8, 92
    li r17, 0
    li r18, 24
loop_head:
    bgtz r4, then_0
    sll r5, r9, 0
    j join_0
then_0:
    andi r19, r4, 252
    li r16, 327680
    add r16, r16, r19
    lw r19, 0(r16)
    andi r19, r19, 252
    li r16, 327680
    add r16, r16, r19
    lw r8, 0(r16)
    andi r10, r6, 252
    lw r10, 0(r16)
join_0:
    li r16, 327680
    sw r2, 0(r16)
    mul r7, r13, r1
    sll r14, r13, 1
    add r15, r10, r12
join_1:
then_1:
    add r1, r15, r4
    bnez r14, then_2
    addi r8, r8, 6
    j join_2
then_2:
    sw r13, 0(r16)
join_2:
    andi r13, r8, 252
    bnez r7, then_3
    andi r4, r8, 252
    j join_3
then_3:
    add r16, r16, r19
    lw r4, 0(r16)
    andi r4, r7, 252
join_3:
    addi r17, r17, 1
    bne r17, r18, loop_head
    halt
