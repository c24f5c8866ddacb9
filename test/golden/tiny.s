main:
  mov rbx, $0x5000
  mov rax, [rbx]
  mov [rbx + 8], rax
  mfence
  mov rcx, $1
  lock xadd [rbx + 16], rcx
  hlt
