main:
  mov rbx, $0x5000
  mov rcx, $20
loop:
  mov rax, [rbx]
  mov [rbx + 8], rax
  mfence
  mov rdx, $1
  lock xadd [rbx + 16], rdx
  sub rcx, $1
  cmp rcx, $0
  jne loop
  hlt
